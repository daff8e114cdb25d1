"""Exact rational intersection lattices and divisor certificates."""

import json
import random
from fractions import Fraction

import pytest

from jflow import (
    BUILTIN_LATTICES,
    ConeError,
    LatticeError,
    SurfaceLattice,
    builtin_lattice,
    class_condition,
    divisor_search,
    intersect,
    lattice_from_dict,
    load_lattice,
    nakai_test,
    verify_certificate,
)
from jflow.cone import (DivisorCandidate, DivisorSearchReport, NakaiReport,
                        _solve_exact)
from jflow.sampling import (_is_failing_with_positive_square, make_rng,
                            random_rational_class)
from oracles import signature


@pytest.fixture
def blowup():
    return builtin_lattice("blowup_p2_1")


@pytest.fixture
def two_blowup():
    return builtin_lattice("blowup_p2_2")


@pytest.fixture
def product():
    return builtin_lattice("product_curves")


class TestSignature:
    def test_diagonal_forms(self):
        assert signature([[1, 0], [0, -1]]) == (1, 1, 0)
        assert signature([[1, 0, 0], [0, -1, 0], [0, 0, -1]]) == (1, 2, 0)

    def test_hyperbolic_plane_zero_pivot(self):
        # both diagonal entries vanish; the inertia comes from the repaired
        # pivot e_1 + e_2 and its complement
        assert signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_null_direction_counted(self):
        assert signature([[0, 0], [0, 5]]) == (1, 0, 1)

    def test_scaling_invariance(self):
        assert signature([[Fraction(1, 3), 0], [0, Fraction(-2, 7)]]) == (1, 1, 0)


def _laplace_det(m):
    """Determinant by cofactor expansion along the first row; an oracle
    that shares no elimination step with _solve_exact or signature."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * _laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _random_symmetric(rng, size):
    """Symmetric rationals of three kinds: unstructured, -B B^T (negative
    definite unless B is rank deficient), and with a repeated row and
    column (singular)."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    kind = rng.randrange(3)
    if kind == 0:
        m = [[None] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                m[i][j] = m[j][i] = entry()
        return m
    b = [[entry() for _ in range(size)] for _ in range(size)]
    m = [[-sum(b[i][k] * b[j][k] for k in range(size)) for j in range(size)]
         for i in range(size)]
    if kind == 2 and size > 1:
        src, dst = rng.sample(range(size), 2)
        m[dst] = list(m[src])
        for row in m:
            row[dst] = row[src]
    return m


class TestNegativeDefiniteness:
    def test_inertia_agrees_with_sylvester(self):
        # negative definite iff (-1)^k times every leading k x k minor is
        # positive (Sylvester); the cone module reads it from the pivots of
        # its Gram solve, the oracle from the inertia
        rng = random.Random(20)
        verdicts = {"definite": 0, "singular": 0, "other": 0}
        for trial in range(300):
            size = 1 + trial % 4
            m = _random_symmetric(rng, size)
            sylvester = all(
                (-1) ** k * _laplace_det([row[:k] for row in m[:k]]) > 0
                for k in range(1, size + 1))
            assert (_solve_exact(m, [0] * size) is not None) == sylvester, m
            assert (signature(m)[1] == size) == sylvester, m
            if sylvester:
                verdicts["definite"] += 1
            elif _laplace_det(m) == 0:
                verdicts["singular"] += 1
            else:
                verdicts["other"] += 1
        assert min(verdicts.values()) >= 30, verdicts


def _random_form(rng, rank):
    """Symmetric rationals, half unstructured and half B' diag(s) B with B
    unit upper triangular, whose inertia is that of the signs s (often
    (1, rank-1, 0), so higher ranks get accepted lattices too)."""
    if rng.randrange(2):
        q = [[None] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                q[i][j] = q[j][i] = Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 2))
        return q
    b = [[1 if i == j else rng.randint(-2, 2) if i < j else 0
          for j in range(rank)] for i in range(rank)]
    s = [rng.choice((1, 1, -1, 0))] + [rng.choice((-1, -1, -1, 1, 0))
                                       for _ in range(rank - 1)]
    den = rng.randint(1, 3)
    return [[Fraction(sum(b[k][i] * s[k] * b[k][j] for k in range(rank)), den)
             for j in range(rank)] for i in range(rank)]


class TestLatticeValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(LatticeError):
            SurfaceLattice(2, [[1, 2], [0, -1]], [], [1, 0])

    def test_wrong_signature_rejected(self):
        with pytest.raises(LatticeError, match=r"^intersection form must "
                           r"have signature \(1, rank-1\)"):
            SurfaceLattice(2, [[1, 0], [0, 1]], [], [1, 0])

    def test_hodge_index_matches_inertia(self):
        # accepted iff the oracle inertia is (1, rank-1, 0) and h.h > 0: the
        # cone test of a curve-free lattice adds only h.h > 0
        rng = random.Random(21)
        accepted = [0] * 4
        form_rejected = 0  # h.h > 0 but the inertia is wrong
        for trial in range(2000):
            rank = 1 + trial % 4
            q = _random_form(rng, rank)
            h = [rng.randint(-2, 2) for _ in range(rank)]
            square = sum(h[i] * q[i][j] * h[j]
                         for i in range(rank) for j in range(rank))
            right_form = signature(q) == (1, rank - 1, 0)
            try:
                SurfaceLattice(rank, q, [], h)
            except LatticeError:
                assert not (right_form and square > 0), (q, h)
                form_rejected += square > 0
                continue
            assert right_form and square > 0, (q, h)
            accepted[rank - 1] += 1
        assert min(accepted) >= 20 and form_rejected >= 100, (
            accepted, form_rejected)

    def test_wrong_self_intersection_rejected(self):
        with pytest.raises(LatticeError):
            SurfaceLattice(
                2, [[1, 0], [0, -1]],
                [{"name": "E", "class": [0, 1], "self": "-2"}],
                [2, -1],
            )

    def test_non_kahler_reference_rejected(self):
        with pytest.raises(LatticeError):
            SurfaceLattice(2, [[1, 0], [0, -1]],
                           [{"name": "E", "class": [0, 1], "self": "-1"}],
                           [1, -2])

    def test_curve_lookup(self, blowup):
        e = blowup.curve("E")
        assert e.cls == (Fraction(0), Fraction(1))
        assert e.negative
        with pytest.raises(LatticeError):
            blowup.curve("F")

    def test_negative_curves(self, blowup, product):
        assert tuple(c.name for c in blowup.curves if c.negative) == ("E",)
        assert not any(c.negative for c in product.curves)


class TestIntersections:
    def test_exact_fraction_arithmetic(self, blowup):
        got = intersect(blowup, [Fraction(1, 3), Fraction(1, 2)],
                        [Fraction(2), Fraction(5)])
        assert got == Fraction(2, 3) - Fraction(5, 2)
        assert isinstance(got, Fraction)

    def test_builtin_products(self, blowup):
        # line class squared is 1, exceptional class squared is -1
        assert intersect(blowup, [1, 0], [1, 0]) == 1
        assert intersect(blowup, [0, 1], [0, 1]) == -1
        assert intersect(blowup, [1, 0], [0, 1]) == 0


def _oracle_intersect(lattice, x, y):
    """x . y summed in Fraction arithmetic over lattice.q, entry by entry:
    the route the integer numerators replaced."""
    xv = [Fraction(v) for v in x]
    yv = [Fraction(v) for v in y]
    total = Fraction(0)
    for i in range(lattice.rank):
        if xv[i] == 0:
            continue
        row = lattice.q[i]
        total += xv[i] * sum(row[j] * yv[j] for j in range(lattice.rank))
    return total


def _oracle_nakai(lattice, alpha):
    av = tuple(Fraction(x) for x in alpha)
    square = _oracle_intersect(lattice, av, av)
    ref = _oracle_intersect(lattice, av, lattice.reference_kahler)
    products = tuple(_oracle_intersect(lattice, av, c.cls)
                     for c in lattice.curves)
    witness = None
    if not square > 0:
        witness = ("square", square)
    elif not ref > 0:
        witness = ("reference", ref)
    else:
        for c, p in zip(lattice.curves, products):
            if not p > 0:
                witness = ("curve", c.name, p)
                break
    return NakaiReport(passed=witness is None, square=square,
                       reference_product=ref, curve_products=products,
                       witness=witness)


def _oracle_class_condition(lattice, omega, chi0):
    ov = tuple(Fraction(x) for x in omega)
    cv = tuple(Fraction(x) for x in chi0)
    for label, vec in (("omega", ov), ("chi0", cv)):
        rep = _oracle_nakai(lattice, vec)
        if not rep.passed:
            raise ConeError(f"{label} is not Kahler here: {rep.describe()}")
    chi_sq = _oracle_intersect(lattice, cv, cv)
    mixed = _oracle_intersect(lattice, ov, cv)
    c = mixed / chi_sq
    target = tuple(2 * c * cv[i] - ov[i] for i in range(lattice.rank))
    report = _oracle_nakai(lattice, target)
    return {
        "c": c,
        "target": target,
        "identity_square": (_oracle_intersect(lattice, target, target)
                            == _oracle_intersect(lattice, ov, ov)),
        "identity_mixed": _oracle_intersect(lattice, target, cv) == mixed,
        "nakai": report,
        "needs_divisor": not report.passed,
    }


def _rational_lattice():
    """Signature (1, 2) with non-integer Q entries and rational curve
    classes; the self-intersections are declared from the oracle."""
    q = [[Fraction(1, 2), Fraction(1, 6), 0],
         [Fraction(1, 6), Fraction(-1, 3), 0],
         [0, 0, Fraction(-2, 5)]]
    probe = SurfaceLattice(3, q, [], [1, 0, 0])
    classes = {"A": ["0", "3/2", "0"], "B": ["0", "0", "5/4"],
               "C": ["1/3", "-1/2", "2/5"], "D": ["1", "-1/2", "-1/2"]}
    curves = [{"name": name, "class": cls,
               "self": str(_oracle_intersect(probe, cls, cls))}
              for name, cls in classes.items()]
    return SurfaceLattice(3, q, curves, ["1/2", "0", "-1/2"], name="rational")


def _assert_fraction_report(rep):
    fields = [rep.square, rep.reference_product, *rep.curve_products]
    if rep.witness is not None:
        fields.append(rep.witness[-1])
    assert all(type(x) is Fraction for x in fields), rep


class TestIntegerRouteOracle:
    """The integer-numerator route against the Fraction formulas it
    replaced: every report field equal, and a Fraction."""

    @pytest.fixture(params=[*BUILTIN_LATTICES, "rational"])
    def lattice(self, request):
        if request.param == "rational":
            return _rational_lattice()
        return builtin_lattice(request.param)

    @staticmethod
    def _draw(rng, rank):
        # a denominator per component, so classes rarely share one
        return tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 6))
                     for _ in range(rank))

    def test_rational_lattice_is_nontrivial(self):
        lattice = _rational_lattice()
        assert lattice._q_den > 1 and lattice._cov_den > lattice._q_den
        assert sum(c.negative for c in lattice.curves) == 3

    def test_intersect_and_nakai(self, lattice):
        rng = random.Random(9)
        passed = 0
        for _ in range(300):
            x, y = self._draw(rng, lattice.rank), self._draw(rng, lattice.rank)
            got = intersect(lattice, x, y)
            assert got == _oracle_intersect(lattice, x, y)
            assert type(got) is Fraction
            rep = nakai_test(lattice, x)
            assert rep == _oracle_nakai(lattice, x)
            _assert_fraction_report(rep)
            passed += rep.passed
        assert passed > 0

    def test_class_condition(self, lattice):
        rng = random.Random(10)
        kahler = [lattice.reference_kahler]
        while len(kahler) < 20:
            v = self._draw(rng, lattice.rank)
            if _oracle_nakai(lattice, v).passed:
                kahler.append(v)
        for omega, chi0 in zip(kahler, kahler[1:] + kahler[:1]):
            got = class_condition(lattice, omega, chi0)
            assert got == _oracle_class_condition(lattice, omega, chi0)
            assert all(type(x) is Fraction for x in (got["c"], *got["target"]))
            _assert_fraction_report(got["nakai"])
        bad = self._draw(rng, lattice.rank)
        while _oracle_nakai(lattice, bad).passed:
            bad = self._draw(rng, lattice.rank)
        with pytest.raises(ConeError) as got:
            class_condition(lattice, bad, kahler[0])
        with pytest.raises(ConeError) as want:
            _oracle_class_condition(lattice, bad, kahler[0])
        assert str(got.value) == str(want.value)


class TestNakai:
    def test_passing_class(self, blowup):
        rep = nakai_test(blowup, [3, -2])
        assert rep.passed
        assert rep.square == 5
        assert rep.reference_product == 4
        assert rep.curve_products == (2, 1)
        assert rep.witness is None
        assert "kahler" in rep.describe()

    def test_curve_witness(self, blowup):
        rep = nakai_test(blowup, [3, 1])
        assert not rep.passed
        assert rep.witness == ("curve", "E", -1)
        assert "curve E" in rep.describe()

    def test_square_witness(self, blowup):
        rep = nakai_test(blowup, [1, -2])
        assert not rep.passed
        assert rep.witness == ("square", -3)

    def test_reference_witness(self, blowup):
        rep = nakai_test(blowup, [-1, 0])
        assert not rep.passed
        assert rep.witness == ("reference", -2)


class TestClassCondition:
    def test_worked_pair(self, blowup):
        out = class_condition(blowup, [2, -1], [5, -1])
        assert out["c"] == Fraction(3, 8)
        assert out["target"] == (Fraction(7, 4), Fraction(1, 4))
        assert out["identity_square"] is True
        assert out["identity_mixed"] is True
        assert out["needs_divisor"] is True
        assert out["nakai"].witness == ("curve", "E", Fraction(-1, 4))

    def test_kahler_target_pair(self, blowup):
        # omega close to a multiple of chi0 keeps the target inside the cone
        out = class_condition(blowup, [4, -1], [2, -1])
        assert out["identity_square"] and out["identity_mixed"]
        if not out["needs_divisor"]:
            assert out["nakai"].passed

    def test_rejects_non_kahler_input(self, blowup):
        with pytest.raises(ConeError):
            class_condition(blowup, [3, 1], [5, -1])
        with pytest.raises(ConeError):
            class_condition(blowup, [2, -1], [1, -2])

    def test_rank3_pairs_certified(self, two_blowup):
        # the proptest cone suite runs class_condition on blowup_p2_1 only
        rng = make_rng(0, stream=900)
        pairs = certified = 0
        for _ in range(200):
            omega = random_rational_class(rng, two_blowup)
            chi0 = random_rational_class(rng, two_blowup)
            if omega is None or chi0 is None:
                continue
            cond = class_condition(two_blowup, omega, chi0)
            assert cond["identity_square"] and cond["identity_mixed"]
            pairs += 1
            if cond["needs_divisor"]:
                rep = divisor_search(two_blowup, cond["target"])
                assert rep.status == "certificate", rep
                assert verify_certificate(two_blowup, cond["target"], rep)
                certified += 1
        assert pairs >= 150 and certified >= 40, (pairs, certified)

    def test_product_lattice_never_needs_divisor(self, product):
        out = class_condition(product, [2, 3], [1, 1])
        assert out["identity_square"] and out["identity_mixed"]
        assert not out["needs_divisor"]


def _meeting_curves_lattice(rng):
    rank = rng.randint(3, 4)
    q = [1] + [-rng.randint(1, 3) for _ in range(rank - 1)]

    def dot(x, y):
        return sum(a * b * c for a, b, c in zip(q, x, y))

    h = [0] * rank
    while dot(h, h) <= 0:
        h = [rng.randint(1, 4)] + [rng.randint(-2, 2) for _ in range(rank - 1)]
    curves, want = [], rng.randint(2, 4)
    for _ in range(200):
        c = [rng.randint(-3, 3) for _ in range(rank)]
        if (len(curves) < want and dot(c, c) < 0 < dot(c, h)
                and c not in curves and all(dot(c, d) >= 0 for d in curves)):
            curves.append(c)
    if len(curves) < 2:
        return _meeting_curves_lattice(rng)
    return SurfaceLattice(
        rank, [[q[i] * (i == j) for j in range(rank)] for i in range(rank)],
        [{"name": f"C{k}", "class": c, "self": str(dot(c, c))}
         for k, c in enumerate(curves)], h)


class TestDivisorSearch:
    def test_kahler_class_passes_through(self, blowup):
        rep = divisor_search(blowup, [3, -2])
        assert rep.status == "kahler"
        assert rep.candidate.empty
        assert rep.margin is None
        assert verify_certificate(blowup, [3, -2], rep)

    def test_worked_certificate(self, blowup):
        alpha = (3, 1)
        rep = divisor_search(blowup, alpha)
        assert rep.status == "certificate"
        assert rep.candidate.support == ("E",)
        assert rep.candidate.coefficients == (Fraction(2),)
        assert rep.remainder == (Fraction(3), Fraction(-1))
        assert rep.margin == 1
        rem = nakai_test(blowup, rep.remainder)
        assert (rem.square, rem.curve_products[0], rem.curve_products[1]) == (
            8, 1, 2
        )
        assert verify_certificate(blowup, alpha, rep)

    def test_boundary_touching_class(self, blowup):
        # alpha . E = 0 keeps E in the support with coefficient zero; the
        # margin phase then opens it to a strict certificate
        rep = divisor_search(blowup, [3, 0])
        assert rep.status == "certificate"
        assert rep.candidate.support == ("E",)
        assert rep.candidate.coefficients == (Fraction(1),)
        assert rep.remainder == (Fraction(3), Fraction(-1))
        assert verify_certificate(blowup, [3, 0], rep)

    def test_fractional_stress_pair(self, blowup):
        out = class_condition(blowup, [2, Fraction(-19, 10)], [10, -1])
        assert out["c"] == Fraction(181, 990)
        target = out["target"]
        assert target == (Fraction(164, 99), Fraction(1519, 990))
        rep = divisor_search(blowup, target)
        assert rep.status == "certificate"
        assert rep.candidate.coefficients == (Fraction(2509, 990),)
        assert rep.remainder == (Fraction(164, 99), Fraction(-1))
        assert verify_certificate(blowup, target, rep)

    def test_two_curve_support(self, two_blowup):
        # a class failing against both exceptional curves needs them both
        alpha = (4, 1, 1)
        rep = divisor_search(two_blowup, alpha)
        assert rep.status == "certificate"
        assert set(rep.candidate.support) >= {"E1", "E2"}
        assert verify_certificate(two_blowup, alpha, rep)

    def test_negative_coefficient_is_dropped(self):
        # alpha fails against A and B, but the Gram solve on {A, B} gives B
        # a negative coefficient; B leaves the support and A alone explains
        # the failure
        lattice = SurfaceLattice(
            3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
            [{"name": "A", "class": [-1, 2, 2], "self": "-7"},
             {"name": "B", "class": [0, 0, 1], "self": "-1"}],
            [3, -1, -1],
        )
        alpha = (1, 0, 0)
        assert nakai_test(lattice, alpha).curve_products == (-1, 0)
        rep = divisor_search(lattice, alpha)
        assert rep.status == "certificate" and rep.rounds == 1
        assert rep.candidate.support == ("A",)
        assert rep.candidate.coefficients == (Fraction(11, 28),)
        assert rep.margin == Fraction(1, 4)
        assert rep.remainder == (Fraction(39, 28), Fraction(-11, 14),
                                 Fraction(-11, 14))
        assert verify_certificate(lattice, alpha, rep)

    def test_gram_direction_opens_a_crowded_support(self, crowded_lattice):
        # every uniform margin leaves the remainder negative on C0; along x
        # with Gram x = -1 it meets C3 and C0 by exactly the margin
        alpha = (4, -2, 0, 2)
        rep = divisor_search(crowded_lattice, alpha)
        assert rep.status == "certificate"
        assert rep.candidate.support == ("C3", "C0")
        assert rep.candidate.coefficients == (Fraction(283, 341),
                                              Fraction(204, 341))
        assert rep.margin == 1
        rem = nakai_test(crowded_lattice, rep.remainder)
        assert (rem.curve_products[0], rem.curve_products[3]) == (1, 1)
        assert verify_certificate(crowded_lattice, alpha, rep)

    def test_random_lattices_with_meeting_curves_certified(self):
        # rank 3-4, Q = diag(1, -a, ...) with a in {1, 2, 3}, and 2-4
        # distinct negative curves that meet the reference positively and
        # each other nonnegatively, as distinct irreducible curves do
        rng, class_rng = random.Random(0), make_rng(0)
        searched = 0
        for _ in range(40):
            lattice = _meeting_curves_lattice(rng)
            for _ in range(20):
                alpha = random_rational_class(
                    class_rng, lattice, tries=20,
                    predicate=_is_failing_with_positive_square)
                if alpha is None:
                    continue
                rep = divisor_search(lattice, alpha)
                assert rep.status == "certificate", (lattice.as_dict(),
                                                     alpha, rep.reason)
                assert verify_certificate(lattice, alpha, rep)
                searched += 1
        assert searched > 300

    def test_precondition_failure(self, blowup):
        with pytest.raises(ConeError):
            divisor_search(blowup, [0, 1])

    def test_no_negative_curves_is_honest(self, product):
        # the target here passes automatically; force a failing class that
        # the curve-free lattice cannot explain
        rep = divisor_search(product, [3, 1])
        assert rep.status == "kahler"

    def test_without_negative_curves_every_target_is_kahler(self, product):
        # signature (1, r - 1) and a reference positive on every curve put
        # a class with alpha^2 > 0 and alpha . h > 0 in the positive cone,
        # which pairs positively with every curve of self-intersection
        # >= 0, so the search has no failing curve to explain
        rank3 = SurfaceLattice(
            3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
            [{"name": "A", "class": [1, 0, 0], "self": "1"},
             {"name": "B", "class": [1, 1, 0], "self": "0"},
             {"name": "C", "class": [2, 1, 1], "self": "2"}],
            [2, 0, 0],
        )
        rng = make_rng(25)
        for lattice in (product, rank3):
            for _ in range(300):
                alpha = random_rational_class(
                    rng, lattice, predicate=lambda p: min(p[:2]) > 0)
                assert divisor_search(lattice, alpha).status == "kahler"

    def test_no_certificate_on_degenerate_support(self):
        # two proportional negative classes make the Gram matrix singular,
        # so the search must refuse rather than fabricate a certificate
        lattice = SurfaceLattice(
            2, [[1, 0], [0, -1]],
            [{"name": "E", "class": [0, 1], "self": "-1"},
             {"name": "E2", "class": [0, 2], "self": "-4"}],
            [2, -1],
        )
        rep = divisor_search(lattice, [3, 1])
        assert rep.status == "no-certificate"
        assert rep.reason != ""
        assert not verify_certificate(lattice, [3, 1], rep)


class TestVerifyCertificate:
    def test_rejects_tampered_coefficient(self, blowup):
        rep = divisor_search(blowup, [3, 1])
        bad = DivisorSearchReport(
            status="certificate",
            candidate=DivisorCandidate(support=("E",),
                                       coefficients=(Fraction(3),)),
            remainder=rep.remainder, margin=rep.margin, rounds=rep.rounds)
        assert not verify_certificate(blowup, [3, 1], bad)

    def test_rejects_tampered_remainder(self, blowup):
        rep = divisor_search(blowup, [3, 1])
        bad = DivisorSearchReport(
            status="certificate", candidate=rep.candidate,
            remainder=(Fraction(2), Fraction(-1)),
            margin=rep.margin, rounds=rep.rounds)
        assert not verify_certificate(blowup, [3, 1], bad)

    def test_rejects_nonnegative_support_curve(self, product):
        bad = DivisorSearchReport(
            status="certificate",
            candidate=DivisorCandidate(support=("F1",),
                                       coefficients=(Fraction(1),)),
            remainder=(Fraction(3), Fraction(0)), margin=Fraction(1),
            rounds=1)
        assert not verify_certificate(product, [3, 1], bad)

    def test_rejects_nonpositive_coefficient(self, blowup):
        bad = DivisorSearchReport(
            status="certificate",
            candidate=DivisorCandidate(support=("E",),
                                       coefficients=(Fraction(0),)),
            remainder=(Fraction(3), Fraction(1)), margin=Fraction(1), rounds=1)
        assert not verify_certificate(blowup, [3, 1], bad)


class TestSerialization:
    def test_builtin_names(self):
        assert set(BUILTIN_LATTICES) == {
            "blowup_p2_1", "blowup_p2_2", "product_curves"
        }
        with pytest.raises(LatticeError):
            builtin_lattice("quadric")

    def test_dict_roundtrip(self, blowup):
        back = lattice_from_dict(blowup.as_dict())
        assert back.rank == blowup.rank
        assert back.q == blowup.q
        assert back.reference_kahler == blowup.reference_kahler
        assert [c.name for c in back.curves] == [c.name for c in blowup.curves]

    def test_load_from_file(self, tmp_path, two_blowup):
        target = tmp_path / "lattice.json"
        target.write_text(json.dumps(two_blowup.as_dict()), encoding="utf-8")
        back = load_lattice(target)
        assert back.rank == 3
        assert nakai_test(back, [3, -1, -1]).passed

    def test_entry_count_validated(self):
        with pytest.raises(LatticeError):
            lattice_from_dict({"rank": 2, "Q": ["1", "0", "0"],
                               "reference_kahler": ["1", "0"]})

