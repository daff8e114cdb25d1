"""Energy functionals: path integrals, exact node sums, inequality chains."""

import json
from pathlib import Path

import numpy as np
import pytest

from jflow import cli
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
from jflow.functionals import (PATH_KINDS, _radau_rule, _simpson_rule,
                               dz_gradient, path_functional_bundle)
from jflow.sampling import make_rng, random_admissible_potential
from oracles import (aubin_yau_energies, aubin_yau_terms,
                     average_scalar_curvature, dbar_energy_matrix,
                     mabuchi_richardson, mixed_density, mixed_density_bundle,
                     path_bundle_richardson)

TWO_PI = 2.0 * np.pi
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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
        # degree <= 3 for n <= 3, where the Simpson sweep is exact, so it
        # checks the Radau route
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


def _background(n: int, pair: str) -> tuple:
    """(omega, chi0) with off-diagonal entries; chi0 complex for "complex"."""
    off = np.diag(np.ones(n - 1), 1)
    omega = np.eye(n) + 0.05 * (off + off.T)
    chi0 = np.diag(np.linspace(1.5, 2.5, n)).astype(complex)
    if pair == "complex":
        chi0 += 0.2j * off - 0.2j * off.T
    else:
        chi0 += 0.1 * (off + off.T)
    return omega, chi0


class TestRadauRoute:
    """The right-Radau node route against the mixed-density expansion."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rule_is_exact_to_degree_n(self, n):
        rule = _radau_rule(n)
        assert len(rule) == (n + 3) // 2 and rule[-1][0] == 1.0
        for degree in range(n + 1):
            got = sum(w * t**degree for t, w in rule)
            assert got == pytest.approx(1.0 / (degree + 1), rel=1e-14)

    def test_radau_iia_nodes(self):
        root6 = np.sqrt(6.0)
        want = [((4 - root6) / 10, (16 - root6) / 36),
                ((4 + root6) / 10, (16 + root6) / 36), (1.0, 1.0 / 9.0)]
        assert np.allclose(_radau_rule(3), want, rtol=1e-14, atol=0.0)
        assert np.allclose(_radau_rule(2), [(1 / 3, 3 / 4), (1.0, 1 / 4)],
                           rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n, mode, points, deriv, pair, count", [
        pytest.param(1, "invariant", 16, "spectral", "real", None, id="1-inv"),
        pytest.param(1, "full", 8, "fd4", "real", None, id="1-full"),
        pytest.param(2, "invariant", 16, "fd4", "real", None, id="2-inv"),
        pytest.param(2, "invariant", 16, "spectral", "complex", 3,
                     id="2-inv-complex-stack"),
        pytest.param(2, "full", 8, "spectral", "complex", None,
                     id="2-full-complex"),
        pytest.param(2, "full", 8, "fd4", "real", None, id="2-full"),
        pytest.param(3, "invariant", 8, "fd4", "complex", None,
                     id="3-inv-complex"),
        pytest.param(3, "invariant", 12, "spectral", "real", None,
                     id="3-inv"),
        pytest.param(4, "invariant", 8, "spectral", "real", None, id="4-inv"),
        pytest.param(4, "invariant", 8, "fd4", "complex", None,
                     id="4-inv-complex"),
    ])
    def test_matches_mixed_density_route(self, n, mode, points, deriv, pair,
                                         count):
        grid = TorusGrid(n=n, points=points, mode=mode)
        omega, chi0 = _background(n, pair)
        # the shift keeps J and I away from the zero of a mean-free phi
        phi = 0.3 + random_admissible_potential(
            make_rng(7, n), grid, chi0, band=2, deriv=deriv, count=count)
        metric = metric_field(grid, chi0, phi, deriv)
        new = flow_functional_bundle(metric, omega)
        old = mixed_density_bundle(metric, omega)
        old["IE"], old["JE"] = aubin_yau_energies(metric)
        ie, je = eval_IE_JE(metric)
        assert np.array_equal(ie, new["IE"]) and np.array_equal(je, new["JE"])
        # Jhat = J - nc I cancels, so it is measured against its terms
        scale = {key: np.abs(old[key]) for key in old}
        scale["Jhat"] = np.abs(old["J"]) + np.abs(old["J"] - old["Jhat"])
        for key in ("J", "I", "Jhat", "IE", "JE"):
            gap = np.abs(np.asarray(new[key]) - old[key]) / scale[key]
            assert np.all(gap <= 1e-12), (key, gap)


class TestSimpsonRoute:
    """The path sweeps' Simpson node sums against the old route, which
    collects rate(t) * kernel on the nodes and extrapolates the trapezoid
    rule by one Richardson step (tests/oracles.py)."""

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_rule_integrates_the_rate(self, kind):
        # sum w f(t)^j = int_0^1 f' f^j dt = 1/(j+1), a cubic at most for
        # j <= 1, where Simpson's rule is exact
        path = PathSpec(kind, 16)
        rule = _simpson_rule(path)
        assert len(rule) == 33 and rule[0][0] == 0.0 and rule[-1][0] == 1.0
        assert _simpson_rule(PathSpec(kind, 16)) is rule
        for j in (0, 1):
            got = sum(w * s**j for s, w in rule)
            assert got == pytest.approx(1.0 / (j + 1), rel=1e-14)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    @pytest.mark.parametrize("deriv", ["fd4", "spectral"])
    @pytest.mark.parametrize("n, mode, points", [
        (1, "invariant", 16), (1, "full", 16), (2, "invariant", 16),
        (2, "full", 8), (3, "invariant", 8)])
    def test_matches_richardson_route(self, n, mode, points, deriv, kind):
        grid = TorusGrid(n=n, points=points, mode=mode)
        omega, chi0 = _background(n, "complex")
        phi = 0.3 + random_admissible_potential(
            make_rng(7, n), grid, chi0, band=2, deriv=deriv)
        metric = metric_field(grid, chi0, phi, deriv)
        path = PathSpec(kind, 16)
        new = path_functional_bundle(metric, omega, path)
        new["M"] = eval_mabuchi(metric, path)
        old = path_bundle_richardson(metric, omega, path)
        old["M"] = mabuchi_richardson(metric, path)
        # Jhat = J - nc I cancels, so it is measured against its terms
        scale = {key: abs(old[key]) for key in old}
        scale["Jhat"] = abs(old["J"]) + abs(old["J"] - old["Jhat"])
        for key in old:
            assert abs(new[key] - old[key]) <= 2e-15 * scale[key], key

    def test_functionals_demo_gaps(self, tmp_path):
        config = str(CONFIG_DIR / "functionals_demo.json")
        out = tmp_path / "report.json"
        assert cli.main(["functionals", config, "--summary", str(out),
                         "--quiet"]) == cli.EXIT_OK
        gaps = json.loads(out.read_text())["path_gaps"]
        problem = cli._build_problem(cli._load_config(config))
        metric = metric_field(problem["grid"], problem["chi0"],
                              problem["phi0"], problem["deriv"])
        old = {
            "Jhat": path_independence_gap(lambda path: path_bundle_richardson(
                metric, problem["omega"], path)["Jhat"]),
            "mabuchi": path_independence_gap(
                lambda path: mabuchi_richardson(metric, path)),
        }
        for key, (lin, quad, rel) in old.items():
            assert gaps[key]["linear"] == pytest.approx(lin, rel=2e-15)
            assert gaps[key]["quadratic"] == pytest.approx(quad, rel=2e-15)
            assert abs(gaps[key]["rel"] - rel) <= 1e-15, key


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

    @pytest.mark.parametrize("n", [3, 4])
    def test_identities_beyond_n2(self, n):
        # band 2 at N = 12 keeps every product in the integrands below the
        # grid's aliasing limit, so both I^E routes are exact sums
        grid = TorusGrid(n=n, points=12)
        chi0 = np.diag(np.linspace(1.5, 2.5, n))
        phis = random_admissible_potential(make_rng(11, n), grid, chi0,
                                           band=2, deriv="spectral", count=3)
        metric = metric_field(grid, chi0, phis, "spectral")
        ie, je = eval_IE_JE(metric)
        other = ie_second_form(metric)
        assert np.all(np.abs(ie - other) <= 1e-12 * np.abs(ie))
        slack = 1e-12 * np.maximum(1.0, np.abs(ie))
        assert np.all(ie > 0.0)
        assert np.all(je - ie / (n + 1) >= -slack)
        assert np.all(n * ie / (n + 1) - je >= -slack)

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
