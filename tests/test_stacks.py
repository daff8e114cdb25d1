"""Stacks of fields through the grid routes.

The derivatives, integrate_top, MetricField, the functionals and the
sampler take a leading stack of fields; each field of a stack must get
exactly the bits it gets on its own, so every comparison here is bytewise.
"""

import numpy as np
import pytest

from jflow import sampling
from jflow.functionals import (PathSpec, eval_entropy, eval_IE_JE,
                               eval_mabuchi, flow_functional_bundle,
                               ie_second_form, path_functional_bundle)
from jflow.hermitian import ShapeError, as_matrix
from jflow.sampling import make_rng, random_admissible_potential
from jflow.torus import (DERIV_MODES, TorusGrid, complex_hessian_of, gradient,
                         integrate_top, metric_field)

# (n, mode, points, leading stack shape); the six-axis grid holds 262,144
# cells a field, so it gets a stack of two
GRIDS = [
    (1, "invariant", 16, (2, 3)),
    (1, "full", 16, (2, 3)),
    (2, "invariant", 16, (2, 3)),
    (2, "full", 8, (3,)),
    (3, "invariant", 8, (3,)),
    (3, "full", 8, (2,)),
]
SMALL_GRIDS = GRIDS[:-1]


def background(n: int) -> np.ndarray:
    # complex off the diagonal, so full grids give complex metrics
    chi0 = np.diag(np.linspace(1.5, 1.0, n)).astype(complex)
    if n > 1:
        chi0[0, 1], chi0[1, 0] = 0.2 + 0.1j, 0.2 - 0.1j
    return as_matrix(chi0)


def noise_stack(grid: TorusGrid, stack: tuple, scale: float = 1.0):
    """Gaussian fields; at scale 1e-3 their metrics over background(n)
    stay positive on the grids above."""
    rng = np.random.default_rng(grid.naxes * 100 + grid.points)
    return scale * rng.standard_normal(stack + grid.shape)


def same_bits(got, want) -> bool:
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("deriv", DERIV_MODES)
@pytest.mark.parametrize("n, mode, points, stack", GRIDS)
def test_derivatives_of_a_stack(n, mode, points, stack, deriv):
    grid = TorusGrid(n=n, points=points, mode=mode)
    phis = noise_stack(grid, stack)
    grads = gradient(phis, grid, deriv)
    hess = complex_hessian_of(phis, grid, deriv)
    assert hess.shape == stack + grid.shape + (n, n)
    for idx in np.ndindex(stack):
        for got, want in zip(grads, gradient(phis[idx], grid, deriv)):
            assert same_bits(got[idx], want)
        assert same_bits(hess[idx], complex_hessian_of(phis[idx], grid, deriv))


@pytest.mark.parametrize("deriv", DERIV_MODES)
@pytest.mark.parametrize("n, mode, points, stack", SMALL_GRIDS)
def test_integrals_and_det_of_a_stack(n, mode, points, stack, deriv):
    grid = TorusGrid(n=n, points=points, mode=mode)
    chi0 = background(n)
    phis = noise_stack(grid, stack, 1e-3)
    metric = metric_field(grid, chi0, phis, deriv)
    det = metric.det()
    volumes = integrate_top(det, grid)
    # an off-diagonal metric entry is a complex density on full grids
    entry = metric.chi[..., 0, n - 1]
    entries = integrate_top(entry, grid)
    assert volumes.shape == entries.shape == stack
    for idx in np.ndindex(stack):
        single = metric_field(grid, chi0, phis[idx], deriv)
        assert same_bits(det[idx], single.det())
        volume = integrate_top(single.det(), grid)
        assert type(volume) is float and same_bits(volumes[idx], volume)
        value = integrate_top(single.chi[..., 0, n - 1], grid)
        assert type(value) is (complex if np.iscomplexobj(entry) else float)
        assert same_bits(entries[idx], value)


def test_integrate_top_reads_the_trailing_axes():
    grid = TorusGrid(n=2, points=16)
    with pytest.raises(ShapeError):
        integrate_top(np.ones((16, 8)), grid)
    with pytest.raises(ShapeError):
        integrate_top(np.ones((16, 16, 8)), grid)
    assert integrate_top(np.ones((3, 16, 16)), grid).tolist() == [
        integrate_top(np.ones((16, 16)), grid)] * 3


def _outputs(value) -> list:
    if isinstance(value, dict):
        return [value[key] for key in sorted(value)]
    return list(value) if isinstance(value, tuple) else [value]


FUNCTIONALS = {
    "IE_JE": eval_IE_JE,
    "IE_second_form": ie_second_form,
    "entropy": eval_entropy,
    "bundle": lambda metric: flow_functional_bundle(
        metric, 0.7 * background(metric.n)),
    # the path sweeps at their smallest resolution, on both path kinds
    "mabuchi": lambda metric: eval_mabuchi(metric, PathSpec("quadratic", 16)),
    "path_bundle": lambda metric: path_functional_bundle(
        metric, 0.7 * background(metric.n), PathSpec("linear", 16)),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
@pytest.mark.parametrize("n, mode, points, deriv", [
    (2, "invariant", 16, "spectral"),
    (2, "full", 8, "fd4"),
    (3, "invariant", 8, "fd4"),
])
def test_functionals_of_a_stack(n, mode, points, deriv, name):
    grid = TorusGrid(n=n, points=points, mode=mode)
    chi0 = background(n)
    phis = random_admissible_potential(make_rng(4, n), grid, chi0, band=2,
                                       deriv=deriv, count=4)
    functional = FUNCTIONALS[name]
    stacked = _outputs(functional(metric_field(grid, chi0, phis, deriv)))
    for k, phi in enumerate(phis):
        single = _outputs(functional(metric_field(grid, chi0, phi, deriv)))
        assert len(single) == len(stacked)
        for got, want in zip(stacked, single):
            assert isinstance(want, float)
            assert same_bits(got[k], want)


class TestSampledStacks:
    """random_admissible_potential(count=k) against k calls in a row."""

    @staticmethod
    def assert_same_as_calls(grid, chi0, band, deriv, count, seed=0):
        new_rng, old_rng = make_rng(seed, band), make_rng(seed, band)
        stack = random_admissible_potential(new_rng, grid, chi0, band=band,
                                            deriv=deriv, count=count)
        calls = [random_admissible_potential(old_rng, grid, chi0, band=band,
                                             deriv=deriv)
                 for _ in range(count)]
        assert stack.shape == (count,) + grid.shape
        assert same_bits(stack, np.stack(calls))
        np.testing.assert_equal(new_rng.bit_generator.state,
                                old_rng.bit_generator.state)

    @pytest.mark.parametrize("deriv", DERIV_MODES)
    @pytest.mark.parametrize("n, mode, points", [
        (1, "invariant", 16), (1, "full", 16), (2, "invariant", 16),
        (2, "full", 8), (3, "invariant", 8)])
    def test_count_equals_calls_in_a_row(self, n, mode, points, deriv):
        grid = TorusGrid(n=n, points=points, mode=mode)
        for band, count in ((1, 1), (2, 3), (3, 5)):
            self.assert_same_as_calls(grid, background(n), band, deriv, count)

    def test_blocks_of_modes_span_the_stack(self, monkeypatch):
        # 12 modes of 4 fields in blocks of two modes
        grid = TorusGrid(n=2, points=16)
        monkeypatch.setattr(sampling, "_BLOCK_CELLS", 2 * 4 * 16 * 16 + 5)
        for deriv in DERIV_MODES:
            self.assert_same_as_calls(grid, np.eye(2), 2, deriv, 4, seed=3)

    def test_without_count_one_field(self):
        grid = TorusGrid(n=2, points=16)
        one = random_admissible_potential(make_rng(1), grid, np.eye(2))
        stack = random_admissible_potential(make_rng(1), grid, np.eye(2),
                                            count=1)
        assert one.shape == grid.shape and stack.shape == (1,) + grid.shape
        assert same_bits(stack[0], one)

    def test_each_field_is_rescaled_by_its_own_margin(self):
        # a draw like the suite's: strong fields are scaled down to the
        # margin and weak ones kept whole, side by side in one stack
        grid = TorusGrid(n=2, points=16)
        chi0 = background(2)
        phis = random_admissible_potential(make_rng(0, 300), grid, chi0,
                                           band=3, deriv="spectral", count=64)
        lam0 = np.linalg.eigvalsh(chi0).min()
        hmin = np.linalg.eigvalsh(complex_hessian_of(
            phis, grid, "spectral")).reshape(64, -1).min(axis=1)
        at_margin = np.isclose(hmin, -0.75 * lam0, rtol=1e-12)
        assert 0 < at_margin.sum() < 64
        assert (hmin[~at_margin] > -0.75 * lam0).all()
