"""Exact intersection arithmetic on Kahler surface lattices.

Verdicts are exact, never floating point.  Each lattice stores Q, and the
covectors Q.c of its reference class and curves, as integer rows over one
positive denominator; products and signs are read from integer numerators
of classes over their common denominator.  Reported values are Fractions.

A SurfaceLattice is a rank-r rational intersection form together with a
finite list of curve classes and one class asserted to be Kahler.  Cone
membership (positive square, positive pairing with the reference class and
with every listed curve) is always relative to that finite curve list, which
stands in for the set of all irreducible curves; the shipped lattices have
complete negative-curve lists, arbitrary user lattices may not.

The divisor search splits a non-Kahler class with positive square into a
positive combination of negative self-intersection curves plus a remainder,
by repeatedly solving the Gram system on the curves the class currently
fails against, then inflating the coefficients by the first dyadic margin
2^-k (k ascending from 0) whose remainder passes the strict cone test,
uniformly, then along x > 0 with G x = -1, G the support's Gram matrix.  A
support is admitted only if its Gram matrix is negative definite, and one
exact elimination decides that and solves the system: Gauss-Jordan without
row exchanges stops at the first pivot >= 0, which by Sylvester's criterion
happens exactly when the matrix is not negative definite.  The same pivot
test checks, by the Hodge index, that a lattice's form has signature
(1, rank-1): it must be negative definite on the orthogonal complement of
the reference class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from operator import mul
from typing import Sequence


class LatticeError(ValueError):
    """Malformed lattice data or operands."""


class ConeError(ValueError):
    """Inputs violate the preconditions of a cone operation."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise LatticeError(f"{x!r} is not an exact rational") from None
    raise LatticeError(f"expected an exact rational, got {type(x).__name__}")


def _vec(xs, rank: int) -> tuple:
    v = tuple(_frac(x) for x in xs)
    if len(v) != rank:
        raise LatticeError(f"class vector has length {len(v)}, rank is {rank}")
    return v


def _numerators(v) -> tuple:
    """Fractions v as (integer numerators, one positive denominator)."""
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _covector(q_num, nums) -> list:
    return [sum(map(mul, row, nums)) for row in q_num]


def _pairings(lattice, nums) -> list:
    """Integer numerators of a.a (over den^2 q_den), a.reference and a.c for
    each listed curve c (over den cov_den), for a = nums / den, den > 0."""
    square = sum(map(mul, nums, _covector(lattice._q_num, nums)))
    return [square] + [sum(map(mul, nums, row)) for row in lattice._covectors]


def _passes(lattice, v) -> bool:
    return min(_pairings(lattice, _numerators(v)[0])) > 0


def _minus(av, terms) -> tuple:
    """av minus the sum of a * curve.cls over the (curve, a) terms."""
    return tuple(x - sum(a * c.cls[i] for c, a in terms)
                 for i, x in enumerate(av))


@dataclass(frozen=True)
class Curve:
    name: str
    cls: tuple
    self_intersection: Fraction

    @property
    def negative(self) -> bool:
        return self.self_intersection < 0


@dataclass(frozen=True)
class NakaiReport:
    passed: bool
    square: Fraction
    reference_product: Fraction
    curve_products: tuple
    witness: tuple | None

    def describe(self) -> str:
        if self.passed:
            return "kahler (relative to the curve list)"
        kind = self.witness[0]
        if kind == "square":
            return f"square {self.witness[1]} is not positive"
        if kind == "reference":
            return f"pairing {self.witness[1]} with the reference class is not positive"
        return f"pairing {self.witness[2]} with curve {self.witness[1]} is not positive"


@dataclass(frozen=True)
class DivisorCandidate:
    support: tuple
    coefficients: tuple

    @property
    def empty(self) -> bool:
        return len(self.support) == 0

    def as_dict(self) -> dict:
        return {
            "support": list(self.support),
            "coefficients": [str(a) for a in self.coefficients],
        }


@dataclass(frozen=True)
class DivisorSearchReport:
    status: str  # "kahler" | "certificate" | "no-certificate"
    candidate: DivisorCandidate
    remainder: tuple
    margin: Fraction | None
    rounds: int
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.candidate.as_dict(),
            "remainder": [str(x) for x in self.remainder],
            "margin": None if self.margin is None else str(self.margin),
            "rounds": self.rounds,
            "reason": self.reason,
        }


class SurfaceLattice:
    """Rational intersection lattice with a finite curve list, each curve a
    dict of its name, class and self-intersection ("self")."""

    def __init__(self, rank: int, q_rows: Sequence, curves: Sequence,
                 reference_kahler: Sequence, name: str = ""):
        if rank < 1:
            raise LatticeError("rank must be at least 1")
        self.rank = int(rank)
        self.name = name
        rows = [tuple(_frac(x) for x in row) for row in q_rows]
        if len(rows) != rank or any(len(r) != rank for r in rows):
            raise LatticeError("intersection matrix must be rank x rank")
        if rows != list(zip(*rows)):
            raise LatticeError("intersection matrix must be symmetric")
        self.q = tuple(rows)
        self.curves = tuple(
            Curve(name=str(c["name"]), cls=_vec(c["class"], rank),
                  self_intersection=_frac(c["self"]))
            for c in curves
        )
        self.reference_kahler = _vec(reference_kahler, rank)
        flat, self._q_den = _numerators([x for row in rows for x in row])
        self._q_num = [flat[i:i + rank] for i in range(0, len(flat), rank)]
        classes = (self.reference_kahler, *(c.cls for c in self.curves))
        flat, den = _numerators([x for v in classes for x in v])
        self._cov_den = self._q_den * den
        self._covectors = [_covector(self._q_num, flat[i:i + rank])
                           for i in range(0, len(flat), rank)]
        self._validate()

    def _validate(self):
        # Hodge index: for h.h > 0, V = <h> + h^perp splits Q into orthogonal
        # blocks, so Q has signature (1, rank-1) iff it is negative definite
        # on h^perp, spanned by e_i - ((Qh)_i / (Qh)_p) e_p for i != p.  A
        # reference class with h.h <= 0 fails its own cone test below.
        # qh: integer numerators of Q.h over a positive denominator
        h, qh = self.reference_kahler, self._covectors[0]
        if sum(map(mul, h, qh)) > 0:
            p = next(i for i, x in enumerate(qh) if x)
            basis = [[(j == i) - (j == p) * Fraction(qh[i], qh[p])
                      for j in range(self.rank)]
                     for i in range(self.rank) if i != p]
            gram = [[intersect(self, x, y) for y in basis] for x in basis]
            if _solve_exact(gram, [0] * len(gram)) is None:
                raise LatticeError(
                    "intersection form must have signature (1, rank-1); it "
                    "is not negative definite on the reference class's "
                    "orthogonal complement")
        for c in self.curves:
            actual = intersect(self, c.cls, c.cls)
            if actual != c.self_intersection:
                raise LatticeError(
                    f"curve {c.name}: declared self-intersection "
                    f"{c.self_intersection}, computed {actual}"
                )
        ref = nakai_test(self, self.reference_kahler)
        if not ref.passed:
            raise LatticeError(
                f"reference class fails its own cone test: {ref.describe()}"
            )

    def curve(self, name: str) -> Curve:
        for c in self.curves:
            if c.name == name:
                return c
        raise LatticeError(f"no curve named {name!r}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "Q": [str(x) for row in self.q for x in row],
            "curves": [
                {"name": c.name, "class": [str(x) for x in c.cls],
                 "self": str(c.self_intersection)}
                for c in self.curves
            ],
            "reference_kahler": [str(x) for x in self.reference_kahler],
        }


def intersect(lattice: SurfaceLattice, x, y) -> Fraction:
    """x . y through the intersection form, exact."""
    xn, xd = _numerators(_vec(x, lattice.rank))
    yn, yd = _numerators(_vec(y, lattice.rank))
    return Fraction(sum(map(mul, xn, _covector(lattice._q_num, yn))),
                    xd * yd * lattice._q_den)


def nakai_test(lattice: SurfaceLattice, alpha) -> NakaiReport:
    """Strict cone membership relative to the lattice's curve list."""
    nums, den = _numerators(_vec(alpha, lattice.rank))
    signs = _pairings(lattice, nums)
    values = [Fraction(signs[0], den * den * lattice._q_den)] + [
        Fraction(p, den * lattice._cov_den) for p in signs[1:]]
    labels = [("square",), ("reference",)] + [
        ("curve", c.name) for c in lattice.curves]
    witness = next((label + (value,) for label, value, sign
                    in zip(labels, values, signs) if sign <= 0), None)
    return NakaiReport(passed=witness is None, square=values[0],
                       reference_product=values[1],
                       curve_products=tuple(values[2:]), witness=witness)


def class_condition(lattice: SurfaceLattice, omega, chi0) -> dict:
    """The surface-class condition: is 2c chi0 - omega Kahler?

    c is the exact ratio (omega . chi0) / (chi0 . chi0).  Two identities
    are immediate from that definition and are re-verified exactly:
    (2c chi0 - omega)^2 = omega^2 and (2c chi0 - omega) . chi0
    = omega . chi0.
    """
    ov = _vec(omega, lattice.rank)
    cv = _vec(chi0, lattice.rank)
    for label, vec in (("omega", ov), ("chi0", cv)):
        if not _passes(lattice, vec):
            raise ConeError(f"{label} is not Kahler here: "
                            f"{nakai_test(lattice, vec).describe()}")
    mixed = intersect(lattice, ov, cv)
    c = mixed / intersect(lattice, cv, cv)
    target = tuple(2 * c * cv[i] - ov[i] for i in range(lattice.rank))
    identity_square = (intersect(lattice, target, target)
                       == intersect(lattice, ov, ov))
    identity_mixed = intersect(lattice, target, cv) == mixed
    report = nakai_test(lattice, target)
    return {
        "c": c,
        "target": target,
        "identity_square": identity_square,
        "identity_mixed": identity_mixed,
        "nakai": report,
        "needs_divisor": not report.passed,
    }


def _solve_exact(gram, rhs) -> list | None:
    """Solve gram x = rhs by Gauss-Jordan elimination over the rationals,
    without row exchanges, or return None if gram is not negative definite.

    The k-th pivot is the ratio of the k-th to the (k-1)-th leading
    principal minor, so by Sylvester's criterion all pivots are negative
    exactly when gram is negative definite; the first pivot >= 0 stops.
    """
    size = len(rhs)
    a = [list(gram[i]) + [rhs[i]] for i in range(size)]
    for col in range(size):
        pivot = a[col][col]
        if pivot >= 0:
            return None
        for r in range(size):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col] / pivot
            for k in range(col, size + 1):
                a[r][k] -= factor * a[col][k]
    return [a[i][size] / a[i][i] for i in range(size)]


def _empty_report(av: tuple, rounds: int, reason: str,
                  status: str = "no-certificate") -> DivisorSearchReport:
    return DivisorSearchReport(
        status=status, candidate=DivisorCandidate(support=(), coefficients=()),
        remainder=av, margin=None, rounds=rounds, reason=reason)


MAX_MARGIN_EXPONENT = 30


def divisor_search(lattice: SurfaceLattice, alpha) -> DivisorSearchReport:
    """Decompose alpha into negative curves plus a Kahler remainder.

    Preconditions are those of the underlying decomposition statement:
    alpha^2 > 0 and alpha . reference > 0.  If alpha already passes the
    cone test the certificate is empty.  Otherwise Zariski-style rounds
    build the support set, and a dyadic margin opens the remainder into the
    strict cone, within 3 rounds per listed curve plus 10.  A
    no-certificate report means the curve list cannot explain the failure
    (typically because it is incomplete).
    """
    av = _vec(alpha, lattice.rank)
    signs = _pairings(lattice, _numerators(av)[0])
    if min(signs[:2]) <= 0:
        rep = nakai_test(lattice, av)
        raise ConeError(
            f"divisor search needs alpha^2 > 0 and alpha . reference > 0; "
            f"got {rep.square} and {rep.reference_product}")
    if min(signs) > 0:
        return _empty_report(av, 0, "", status="kahler")

    # pairings index 2 + k belongs to lattice.curves[k]
    negatives = [(k, c) for k, c in enumerate(lattice.curves, 2) if c.negative]

    def failing_against(signs) -> list:
        return [c for k, c in negatives if c not in support and signs[k] <= 0]

    support: list = []
    coeffs: dict = {}
    failing = failing_against(signs)
    for rounds in range(1, 3 * len(lattice.curves) + 11):
        support.extend(failing)
        if not support:
            break
        while True:
            gram = [[intersect(lattice, ci.cls, cj.cls) for cj in support]
                    for ci in support]
            rhs = [intersect(lattice, av, c.cls) for c in support]
            solution = _solve_exact(gram, rhs)
            if solution is None:
                return _empty_report(
                    av, rounds, "Gram matrix of the candidate support is not "
                                "negative definite; curve list is "
                                "inconsistent or incomplete")
            # zero coefficients stay: a curve the class touches with equality
            # belongs in the support so the margin phase can open it up
            dropped = [c for c, a in zip(support, solution) if a < 0]
            if not dropped:
                coeffs = dict(zip(support, solution))
                break
            support = [c for c in support if c not in dropped]
            if not support:
                coeffs = {}
                break
        rest = _pairings(lattice, _numerators(_minus(av, coeffs.items()))[0])
        failing = failing_against(rest)
        if not failing:
            break

    if not coeffs:
        return _empty_report(
            av, rounds, "no positive combination of listed negative curves "
                        "explains the failure")

    # uniform first; along x the remainder meets each support curve by delta
    for x in ([1] * len(coeffs), None):
        x = x or _solve_exact(gram, [-1] * len(coeffs))
        if min(x) <= 0:
            break
        for k in range(MAX_MARGIN_EXPONENT + 1):
            delta = Fraction(1, 2**k)
            inflated = {c: a + delta * xc
                        for (c, a), xc in zip(coeffs.items(), x)}
            remainder = _minus(av, inflated.items())
            if _passes(lattice, remainder):
                candidate = DivisorCandidate(tuple(c.name for c in inflated),
                                             tuple(inflated.values()))
                return DivisorSearchReport(
                    status="certificate", candidate=candidate,
                    remainder=remainder, margin=delta, rounds=rounds)

    return _empty_report(
        av, rounds, f"margin schedule exhausted at 2^-{MAX_MARGIN_EXPONENT}")


def verify_certificate(lattice: SurfaceLattice, alpha,
                       report: DivisorSearchReport) -> bool:
    """Independent re-check of a search result from raw products.

    Every support curve must have negative self-intersection, every
    coefficient must be positive, the stored remainder must equal
    alpha minus the divisor, and the remainder must pass the strict cone
    test.  An empty certificate verifies iff alpha itself passes.
    """
    av = _vec(alpha, lattice.rank)
    cand = report.candidate
    if cand.empty:
        return _passes(lattice, av)
    terms = []
    for name, a in zip(cand.support, cand.coefficients):
        curve = lattice.curve(name)
        if not (a > 0 and intersect(lattice, curve.cls, curve.cls) < 0):
            return False
        terms.append((curve, a))
    remainder = _minus(av, terms)
    if remainder != tuple(report.remainder):
        return False
    return _passes(lattice, remainder)


def _require_keys(obj, keys, where: str) -> None:
    if not isinstance(obj, dict):
        raise LatticeError(
            f"{where} must be an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise LatticeError(f"{where} has no {key!r} key")


def _require_type(value, kind: type, where: str):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise LatticeError(f"{where} must be of type {kind.__name__}, "
                           f"got {type(value).__name__}")
    return value


def lattice_from_dict(data: dict) -> SurfaceLattice:
    _require_keys(data, ("rank", "Q", "reference_kahler"), "lattice")
    rank = _require_type(data["rank"], int, "lattice 'rank'")
    curves = _require_type(data.get("curves", []), list, "lattice 'curves'")
    for i, curve in enumerate(curves):
        _require_keys(curve, ("name", "class", "self"), f"curve {i}")
        _require_type(curve["class"], list, f"curve {i} 'class'")
    _require_type(data["reference_kahler"], list, "lattice 'reference_kahler'")
    flat = _require_type(data["Q"], list, "lattice 'Q'")
    if len(flat) != rank * rank:
        raise LatticeError(
            f"Q has {len(flat)} entries, expected {rank * rank}")
    rows = [flat[i * rank:(i + 1) * rank] for i in range(rank)]
    return SurfaceLattice(rank, rows, curves, data["reference_kahler"],
                          name=str(data.get("name", "")))


def load_lattice(path) -> SurfaceLattice:
    with open(path, "r", encoding="utf-8") as handle:
        return lattice_from_dict(json.load(handle))


BUILTIN_LATTICES = ("blowup_p2_1", "blowup_p2_2", "product_curves")


def builtin_lattice(name: str) -> SurfaceLattice:
    if name not in BUILTIN_LATTICES:
        raise LatticeError(
            f"unknown builtin lattice {name!r}; have {BUILTIN_LATTICES}")
    ref = resources.files("jflow.data.lattices") / f"{name}.json"
    return lattice_from_dict(json.loads(ref.read_text(encoding="utf-8")))
