"""Energy functionals: path integrals, closed forms, inequality chains."""

import numpy as np
import pytest

from jflow import (
    PathSpec,
    ShapeError,
    TorusGrid,
    cosine_mode,
    eval_entropy,
    eval_IE_JE,
    eval_mabuchi,
    fit_properness,
    flow_functional_bundle,
    ie_second_form,
    integrate_top,
    metric_field,
    path_independence_gap,
    volume_of,
)
from jflow.functionals import (
    aubin_yau_terms,
    average_scalar_curvature,
    dbar_energy_matrix,
    dz_gradient,
    mixed_density,
    path_functional_bundle,
)

TWO_PI = 2.0 * np.pi


def _n2_potential(grid):
    return (
        cosine_mode(grid, [1, 0], 0.35)
        + cosine_mode(grid, [0, 1], 0.25, 0.7)
        + cosine_mode(grid, [1, 1], 0.15, 1.3)
    )


@pytest.fixture
def setup_n2():
    grid = TorusGrid(n=2, points=16, mode="invariant")
    omega = np.array([[1.0, 0.1], [0.1, 0.8]])
    chi0 = np.array([[2.0, 0.3], [0.3, 1.6]])
    return grid, omega, chi0, _n2_potential(grid)


class TestPathSpec:
    def test_kind_validation(self):
        with pytest.raises(ShapeError):
            PathSpec("exponential")

    def test_minimum_steps(self):
        with pytest.raises(ShapeError):
            PathSpec("linear", steps=8)

    def test_weight_and_rate(self):
        quad = PathSpec("quadratic")
        assert quad.weight(0.5) == pytest.approx(0.25)
        assert quad.rate(0.5) == pytest.approx(1.0)
        lin = PathSpec("linear")
        assert lin.weight(0.5) == 0.5
        assert lin.rate(0.5) == 1.0


class TestDensities:
    def test_volume_of(self):
        grid = TorusGrid(n=2, points=8)
        assert volume_of(np.diag([2.0, 3.0]), grid) == pytest.approx(
            6.0 * TWO_PI**4, rel=1e-13
        )

    def test_mixed_density_single_form_is_determinant(self):
        grid = TorusGrid(n=2, points=8)
        chi = np.array([[2.0, 0.4], [0.4, 1.5]])
        stack = np.broadcast_to(chi, grid.shape + (2, 2))
        dens = mixed_density([stack, stack], grid)
        want = np.linalg.det(chi)
        assert np.max(np.abs(dens - want)) < 1e-13

    def test_dz_gradient_invariant(self):
        grid = TorusGrid(n=1, points=32)
        phi = cosine_mode(grid, [1], 1.0)
        x = grid.axis_coordinate(0)
        f = dz_gradient(phi, grid, "spectral")[0]
        assert np.max(np.abs(f + 0.5 * np.sin(x).reshape(grid.shape))) < 1e-12

    def test_dz_gradient_full_picks_up_phase(self):
        grid = TorusGrid(n=1, points=16, mode="full")
        phi = cosine_mode(grid, [0, 1])
        y = grid.axis_coordinate(1)
        f = dz_gradient(phi, grid, "spectral")[0]
        want = 0.5j * np.broadcast_to(np.sin(y), grid.shape)
        assert np.max(np.abs(f - want)) < 1e-12

    def test_dbar_energy_matrix_is_rank_one(self, setup_n2):
        grid, _, _, phi = setup_n2
        p = dbar_energy_matrix(phi, grid, "fd4")
        dets = p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0]
        assert np.max(np.abs(dets)) < 1e-13
        assert np.min(p[..., 0, 0]) >= 0.0


class TestPathFunctionals:
    def test_constant_potential_closed_forms(self, setup_n2):
        grid, omega, chi0, _ = setup_n2
        const = np.full(grid.shape, 0.7)
        vol = volume_of(chi0, grid)
        trace = np.trace(np.linalg.solve(chi0, omega))
        bundle = flow_functional_bundle(metric_field(grid, chi0, const),
                                        omega)
        assert bundle["I"] == pytest.approx(0.7 * vol, rel=1e-12)
        assert bundle["J"] == pytest.approx(0.7 * trace * vol, rel=1e-12)
        assert bundle["Jhat"] == pytest.approx(0.0, abs=1e-9 * abs(0.7 * vol))

    def test_jhat_constant_shift_invariance(self, setup_n2):
        grid, omega, chi0, phi = setup_n2
        a = flow_functional_bundle(metric_field(grid, chi0, phi), omega)
        b = flow_functional_bundle(metric_field(grid, chi0, phi + 0.9), omega)
        assert b["Jhat"] == pytest.approx(a["Jhat"], rel=1e-9)

    def test_path_independence(self, setup_n2):
        grid, omega, chi0, phi = setup_n2
        metric = metric_field(grid, chi0, phi)
        gaps = {}
        for key in ("J", "I", "Jhat"):
            _, _, gaps[key] = path_independence_gap(
                lambda path, key=key: path_functional_bundle(
                    metric, omega, path)[key])
        assert gaps["J"] < 1e-9
        assert gaps["I"] < 1e-8
        assert gaps["Jhat"] < 1e-8

    @pytest.mark.parametrize("n, points, pair", [
        pytest.param(2, 16, "real", id="2-16"),
        pytest.param(3, 8, "real", id="3-8"),
        pytest.param(2, 16, "complex", id="2-16-complex")])
    def test_closed_form_j_and_i(self, n, points, pair):
        # along the linear path both integrands are polynomials in t of
        # degree <= 3 for n <= 3, where the Richardson-extrapolated
        # trapezoid sweep (Simpson) is exact, so it checks the closed form
        grid = TorusGrid(n=n, points=points)
        if pair == "real":
            omega = np.eye(n) + 0.1 * np.diag(np.ones(n - 1), 1)
            omega = 0.5 * (omega + omega.T)
            chi0 = np.diag(np.linspace(1.5, 2.5, n))
        else:
            # the property suite's pair
            chi0 = np.array([[1.4, 0.25 + 0.10j], [0.25 - 0.10j, 1.0]])
            omega = np.array([[1.0, 0.10j], [-0.10j, 0.8]])
        phi = cosine_mode(grid, [1] + [0] * (n - 1), 0.3) + cosine_mode(
            grid, [0] + [1] * (n - 1), 0.2, 0.5)
        metric = metric_field(grid, chi0, phi, "spectral")
        closed = flow_functional_bundle(metric, omega)
        swept = path_functional_bundle(metric, omega, PathSpec())
        for key in ("J", "I", "Jhat"):
            assert closed[key] == pytest.approx(swept[key], rel=1e-12)


class TestEnergyChain:
    def test_terms_nonnegative(self, setup_n2):
        grid, _, chi0, phi = setup_n2
        terms = aubin_yau_terms(metric_field(grid, chi0, phi))
        scale = max(abs(t) for t in terms)
        assert all(t >= -1e-12 * scale for t in terms)

    def test_sandwich_inequalities(self, setup_n2):
        grid, _, chi0, phi = setup_n2
        ie, je = eval_IE_JE(metric_field(grid, chi0, phi))
        n = grid.n
        slack = 1e-12 * max(1.0, abs(ie))
        assert ie >= -slack
        assert je - ie / (n + 1) >= -slack
        assert n * ie / (n + 1) - je >= -slack

    def test_n1_energies_coincide_up_to_half(self):
        # for n = 1 both sandwich bounds collapse to J^E = I^E / 2 and
        # I^E of a single spectral mode has the closed form a^2 / 8
        grid = TorusGrid(n=1, points=32)
        phi = cosine_mode(grid, [1], 0.6)
        ie, je = eval_IE_JE(metric_field(grid, np.eye(1), phi, "spectral"))
        assert ie == pytest.approx(0.6**2 / 8.0, rel=1e-12)
        assert je == pytest.approx(ie / 2.0, rel=1e-12)

    def test_second_form_agreement_spectral(self, setup_n2):
        grid, _, chi0, phi = setup_n2
        metric = metric_field(grid, chi0, phi, "spectral")
        ie, _ = eval_IE_JE(metric)
        other = ie_second_form(metric)
        assert other == pytest.approx(ie, rel=1e-12)

    def test_second_form_agreement_fd4(self, setup_n2):
        # the summation-by-parts move behind the identity only needs the
        # stencils to commute, so the fd4 routes also agree to rounding
        grid, _, chi0, phi = setup_n2
        metric = metric_field(grid, chi0, phi, "fd4")
        ie, _ = eval_IE_JE(metric)
        other = ie_second_form(metric)
        assert other == pytest.approx(ie, rel=1e-12)

    def test_second_form_agreement_n3(self):
        grid = TorusGrid(n=3, points=12)
        chi0 = np.diag([2.0, 2.5, 3.0])
        phi = cosine_mode(grid, [1, 0, 0], 0.3) + cosine_mode(
            grid, [0, 1, 1], 0.2, 0.5
        )
        metric = metric_field(grid, chi0, phi, "fd4")
        ie, _ = eval_IE_JE(metric)
        other = ie_second_form(metric)
        assert other == pytest.approx(ie, rel=1e-12)

    def test_zero_field_energies_vanish(self, setup_n2):
        grid, _, chi0, _ = setup_n2
        ie, je = eval_IE_JE(metric_field(grid, chi0, grid.zeros()))
        assert ie == pytest.approx(0.0, abs=1e-15)
        assert je == pytest.approx(0.0, abs=1e-15)


class TestEntropyAndCurvature:
    def test_entropy_zero_on_flat(self, setup_n2):
        # the log picks up rounding of order eps relative to det(chi0), and
        # the weighted sum scales it by the torus volume
        grid, _, chi0, _ = setup_n2
        flat = metric_field(grid, chi0, grid.zeros())
        assert eval_entropy(flat) == pytest.approx(0.0, abs=1e-10)

    def test_entropy_nonnegative_n2(self, setup_n2):
        # discrete volume conservation is exact for n = 2, so Jensen applies
        grid, _, chi0, phi = setup_n2
        assert eval_entropy(metric_field(grid, chi0, phi)) >= -1e-12

    def test_n2_volume_conservation_exact(self, setup_n2):
        grid, _, chi0, phi = setup_n2
        metric = metric_field(grid, chi0, phi)
        total = integrate_top(metric.det(), grid)
        assert total == pytest.approx(volume_of(chi0, grid), rel=1e-13)

    def test_average_curvature_n1_exact_zero(self):
        grid = TorusGrid(n=1, points=32)
        phi = cosine_mode(grid, [1], 0.5)
        metric = metric_field(grid, np.eye(1), phi)
        assert average_scalar_curvature(metric) == pytest.approx(0.0,
                                                                 abs=1e-13)

    def test_average_curvature_n2_small(self, setup_n2):
        grid, _, chi0, phi = setup_n2
        rbar = average_scalar_curvature(metric_field(grid, chi0, phi))
        assert abs(rbar) < 1e-10

    def test_mabuchi_equals_entropy_for_n1(self):
        # with a flat background in one complex dimension the path integral
        # telescopes to the entropy; the discrete stencils preserve this
        grid = TorusGrid(n=1, points=32)
        chi0 = np.array([[1.5]])
        phi = cosine_mode(grid, [1], 0.4) + cosine_mode(grid, [2], 0.1, 0.3)
        metric = metric_field(grid, chi0, phi)
        m = eval_mabuchi(metric)
        s = eval_entropy(metric)
        assert m == pytest.approx(s, rel=1e-9)

    @pytest.mark.parametrize("n, points", [
        pytest.param(2, 16, id="16"), pytest.param(2, 32, id="32"),
        pytest.param(3, 8, id="n3-8"), pytest.param(3, 12, id="n3-12")])
    def test_mabuchi_equals_entropy_n2_spectral(self, setup_n2, n, points):
        # constant chi0 is Ricci-flat with Rbar = 0, so the Chen-Tian
        # formula leaves only the entropy term
        grid = TorusGrid(n=n, points=points)
        if n == 2:
            chi0, phi = setup_n2[2], _n2_potential(grid)
        else:
            chi0 = np.diag([2.0, 2.5, 3.0])
            phi = cosine_mode(grid, [1, 0, 0], 0.3) + cosine_mode(
                grid, [0, 1, 1], 0.2, 0.5)
        metric = metric_field(grid, chi0, phi, "spectral")
        m = eval_mabuchi(metric, PathSpec("linear", 32))
        assert m == pytest.approx(eval_entropy(metric), rel=1e-10)

    def test_mabuchi_entropy_gap_shrinks_fd4(self, setup_n2):
        _, _, chi0, _ = setup_n2
        gaps = []
        for points in (16, 32):
            grid = TorusGrid(n=2, points=points)
            phi = _n2_potential(grid)
            metric = metric_field(grid, chi0, phi, "fd4")
            m = eval_mabuchi(metric, PathSpec("linear", 32))
            gaps.append(abs(m - eval_entropy(metric)))
        assert gaps[1] * 4.0 <= gaps[0]

    def test_mabuchi_path_independence(self, setup_n2):
        grid, _, chi0, phi = setup_n2
        metric = metric_field(grid, chi0, phi)
        _, _, gap = path_independence_gap(
            lambda path: eval_mabuchi(metric, path), steps=32)
        assert gap < 1e-6


class TestPropernessFit:
    def test_exact_affine_data(self):
        je = np.linspace(0.0, 5.0, 12)
        mab = 2.0 * je - 3.0
        fit = fit_properness(je, mab)
        assert fit["alpha"] == pytest.approx(2.0, rel=1e-12)
        assert fit["C"] == pytest.approx(3.0, rel=1e-12)
        assert fit["min_slack"] == pytest.approx(0.0, abs=1e-12)
        assert fit["samples"] == 12

    def test_bound_holds_on_noisy_data(self, rng):
        je = np.linspace(0.0, 4.0, 40)
        mab = 1.5 * je - 2.0 + 0.2 * rng.random(40)
        fit = fit_properness(je, mab)
        assert np.all(mab >= fit["alpha"] * je - fit["C"] - 1e-12)

    def test_validation(self):
        with pytest.raises(ShapeError):
            fit_properness(np.ones(3), np.ones(4))
        with pytest.raises(ShapeError):
            fit_properness(np.ones(1), np.ones(1))
