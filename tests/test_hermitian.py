"""Pointwise linear algebra: pencil spectra, cone conditions, wedge oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jflow import (
    BOUNDARY_TOL,
    ShapeError,
    SingularFormError,
    check_condition,
    condition_margin,
    cone_form_positive,
    relative_spectrum,
    trace_pair,
    wedge_oracle,
)
from jflow.hermitian import (
    CONDITIONS,
    as_matrix,
    condition_margins_batch,
    pencil_eigenvalues_batch,
    wedge_coefficient_batch,
)


def random_hermitian_positive(rng, n, ridge=0.3):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + ridge * np.eye(n)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


class TestHermitianForm:
    """as_matrix: coefficient matrices of (1,1)-forms."""

    def test_symmetrizes_input(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = as_matrix(a)
        assert np.array_equal(m, m.conj().T)
        assert np.allclose(m, 0.5 * (a + a.conj().T))

    def test_as_matrix_passthrough(self):
        m = np.diag([1.0, 2.0])
        assert as_matrix(m) is not None
        assert np.array_equal(as_matrix(m), m)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            as_matrix(np.ones((2, 3)))


class TestTracePair:
    def test_diagonal_oracle(self):
        # tr(a^-1 b) for diagonal pairs is a plain sum of ratios.
        a = np.diag([2.0, 5.0])
        b = np.diag([4.0, 10.0])
        assert trace_pair(a, b) == pytest.approx(4.0, abs=1e-14)

    def test_flat_normalization_example(self):
        assert trace_pair(2 * np.eye(2), np.eye(2)) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            trace_pair(np.eye(2), np.eye(3))

    def test_nonpositive_base_rejected(self):
        with pytest.raises(SingularFormError):
            trace_pair(np.diag([1.0, -1.0]), np.eye(2))

    def test_congruence_against_spectrum(self, rng):
        g = random_hermitian_positive(rng, 3)
        chi = random_hermitian_positive(rng, 3)
        spec = relative_spectrum(g, chi)
        assert trace_pair(chi, g) == pytest.approx(
            spec.trace_of_inverse(), rel=1e-12
        )


class TestRelativeSpectrum:
    def test_diagonal_pair(self):
        spec = relative_spectrum(np.eye(3), np.diag([2.0, 3.0, 5.0]))
        assert np.allclose(spec.lambdas, [2.0, 3.0, 5.0])
        assert spec.trace_of_inverse() == pytest.approx(31.0 / 30.0, abs=1e-14)

    def test_congruence_invariance(self, rng):
        # The pencil spectrum only depends on the pair up to simultaneous
        # congruence, so transporting both forms must leave it unchanged.
        g = random_hermitian_positive(rng, 3)
        chi = random_hermitian_positive(rng, 3)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t += 3 * np.eye(3)
        a = relative_spectrum(g, chi).lambdas
        b = relative_spectrum(t.conj().T @ g @ t, t.conj().T @ chi @ t).lambdas
        assert np.allclose(a, b, rtol=1e-9)

    def test_rejects_indefinite_chi(self):
        with pytest.raises(SingularFormError):
            relative_spectrum(np.eye(2), np.diag([1.0, -0.5]))

    def test_rejects_indefinite_g(self):
        with pytest.raises(SingularFormError):
            relative_spectrum(np.diag([1.0, -0.5]), np.eye(2))


class TestConditionMargins:
    def test_all_pass_at_three(self):
        lam = np.array([3.0, 3.0, 3.0])
        # 1/lambda = 1/3 each: C1 margin 2/3, C2 margin 1/2 - 1/3,
        # C3 margin 1 - 2/3.
        assert condition_margin(lam, "C1") == pytest.approx(2.0 / 3.0)
        assert condition_margin(lam, "C2") == pytest.approx(1.0 / 6.0)
        assert condition_margin(lam, "C3") == pytest.approx(1.0 / 3.0)

    def test_c2_fails_while_c3_passes(self):
        lam = np.array([1.2, 10.0, 10.0])
        assert condition_margin(lam, "C1") > 0
        assert condition_margin(lam, "C2") < 0
        # The worst omitted index drops the smallest reciprocal.
        assert condition_margin(lam, "C3") == pytest.approx(
            1.0 - (1.0 / 1.2 + 1.0 / 10.0), rel=1e-12
        )

    def test_n2_all_fail_together(self):
        lam = np.array([0.9, 5.0])
        for which in CONDITIONS:
            assert condition_margin(lam, which) < 0

    def test_n1_vacuous_c2(self):
        lam = np.array([2.0])
        assert condition_margin(lam, "C2") == np.inf
        assert condition_margin(lam, "C3") == pytest.approx(1.0)

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            condition_margin(np.array([2.0, 2.0]), "C4")

    def test_boundary_flag(self):
        rep = check_condition(np.eye(2), np.diag([1.0, 2.0]), "C1")
        assert not rep.passed
        assert rep.boundary
        assert abs(rep.margin) <= BOUNDARY_TOL

    def test_report_fields(self, rng):
        g = random_hermitian_positive(rng, 2)
        chi = random_hermitian_positive(rng, 2) + 4 * np.eye(2)
        rep = check_condition(g, chi, "C3")
        assert rep.which == "C3"
        assert len(rep.lambdas) == 2
        assert rep.passed == (rep.margin > BOUNDARY_TOL)

    @given(
        lams=st.lists(
            st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=5
        )
    )
    @settings(max_examples=200)
    def test_margin_chain(self, lams):
        lam = np.array(sorted(lams))
        margins = {w: condition_margin(lam, w) for w in CONDITIONS}
        # Verdict implications: the stronger inequality forces the weaker.
        if margins["C2"] > 0:
            assert margins["C3"] > 0
        if margins["C3"] > 0:
            assert margins["C1"] > 0
        if lam.size == 2:
            signs = {w: margins[w] > 0 for w in CONDITIONS}
            assert signs["C1"] == signs["C2"] == signs["C3"]


class TestConeForm:
    def test_matches_c3_margin(self, rng):
        for _ in range(25):
            g = random_hermitian_positive(rng, 3)
            chi = random_hermitian_positive(rng, 3)
            cone = cone_form_positive(g, chi)
            c3 = check_condition(g, chi, "C3")
            assert cone.which == "cone"
            assert cone.margin == pytest.approx(c3.margin, rel=1e-12, abs=1e-15)
            assert cone.passed == c3.passed

    def test_flat_example(self):
        rep = cone_form_positive(np.eye(2), 2 * np.eye(2))
        assert rep.passed
        assert rep.margin == pytest.approx(0.5)


def minor_pair_oracle(a, b, p, q):
    """Coefficient of the (p, q) minor monomial in a ^ b, written longhand."""
    return (
        a[p, p] * b[q, q]
        + a[q, q] * b[p, p]
        - a[p, q] * b[q, p]
        - a[q, p] * b[p, q]
    ).real


class TestWedgeOracle:
    def test_power_is_factorial_determinant(self, rng):
        for n in (1, 2, 3):
            a = random_hermitian_positive(rng, n)
            expected = math.factorial(n) * np.linalg.det(a).real
            assert wedge_oracle([(a, n)]) == pytest.approx(expected, rel=1e-12)

    def test_diagonal_reduced_coefficient(self):
        # omega = I_3 against chi = diag(2, 3, 5), omitting the first
        # coordinate direction: kept indices {1, 2} give 1*5 + 1*3 = 8.
        omega = np.eye(3)
        chi = np.diag([2.0, 3.0, 5.0])
        assert wedge_oracle([(omega, 1), (chi, 1)], k=0) == pytest.approx(8.0)
        assert wedge_oracle([(omega, 1), (chi, 1)], k=1) == pytest.approx(7.0)
        assert wedge_oracle([(omega, 1), (chi, 1)], k=2) == pytest.approx(5.0)

    def test_two_by_two_minor_formula(self, rng):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        for k, (p, q) in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
            assert wedge_oracle([(a, 1), (b, 1)], k=k) == pytest.approx(
                minor_pair_oracle(a, b, p, q), rel=1e-12, abs=1e-12
            )

    def test_trace_identity(self, rng):
        # W(omega, chi^{n-1}) = (n-1)! tr(chi^-1 omega) det(chi).
        n = 3
        g = random_hermitian_positive(rng, n)
        chi = random_hermitian_positive(rng, n)
        w = wedge_oracle([(g, 1), (chi, n - 1)])
        expected = 2.0 * trace_pair(chi, g) * np.linalg.det(chi).real
        assert w == pytest.approx(expected, rel=1e-10)

    def test_polarization_against_determinants(self, rng):
        # Inclusion-exclusion over subsets recovers the fully mixed term:
        # det(A+B+C) - det(A+B) - det(A+C) - det(B+C) + det A + det B + det C
        # equals W(A, B, C) for 3x3 Hermitian slots.
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        c = random_hermitian(rng, 3)
        det = lambda m: np.linalg.det(m).real
        expected = (
            det(a + b + c)
            - det(a + b)
            - det(a + c)
            - det(b + c)
            + det(a)
            + det(b)
            + det(c)
        )
        w = wedge_oracle([(a, 1), (b, 1), (c, 1)])
        assert w == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_degree_mismatch_raises(self):
        with pytest.raises(ShapeError):
            wedge_oracle([(np.eye(3), 2)])
        with pytest.raises(ShapeError):
            wedge_oracle([(np.eye(3), 3)], k=0)
        with pytest.raises(ShapeError):
            wedge_oracle([(np.eye(3), 2)], k=5)

    def test_empty_and_negative_multiplicity(self):
        with pytest.raises(ShapeError):
            wedge_oracle([])
        with pytest.raises(ShapeError):
            wedge_oracle([(np.eye(2), -1)])


class TestBatchRoutes:
    def test_wedge_batch_matches_scalar(self, rng):
        n = 3
        batch = 7
        a = np.stack([random_hermitian(rng, n) for _ in range(batch)])
        b = np.stack([random_hermitian(rng, n) for _ in range(batch)])
        got = wedge_coefficient_batch([a, b], n, k=1)
        for i in range(batch):
            assert got[i] == pytest.approx(
                wedge_oracle([(a[i], 1), (b[i], 1)], k=1), rel=1e-12, abs=1e-12
            )

    def test_pencil_batch_matches_scalar(self, rng):
        n = 3
        batch = 5
        g = np.stack([random_hermitian_positive(rng, n) for _ in range(batch)])
        chi = np.stack([random_hermitian_positive(rng, n) for _ in range(batch)])
        lam = pencil_eigenvalues_batch(g, chi)
        assert lam.shape == (batch, n)
        for i in range(batch):
            assert np.allclose(
                lam[i], relative_spectrum(g[i], chi[i]).lambdas, rtol=1e-10
            )

    def test_pencil_batch_shared_base(self, rng):
        chi = np.stack([random_hermitian_positive(rng, 2) for _ in range(4)])
        lam = pencil_eigenvalues_batch(np.eye(2), chi)
        for i in range(4):
            assert np.allclose(lam[i], np.linalg.eigvalsh(chi[i]), rtol=1e-12)

    def test_margin_batch_matches_scalar(self, rng):
        lam = 0.1 + 5.0 * rng.random((20, 4))
        margins = condition_margins_batch(lam)
        for which in CONDITIONS:
            for i in range(20):
                assert margins[which][i] == pytest.approx(
                    condition_margin(lam[i], which), rel=1e-12
                )

    def test_margin_batch_n1_c2_infinite(self):
        margins = condition_margins_batch(np.array([[2.0], [3.0]]))
        assert np.all(np.isinf(margins["C2"]))
