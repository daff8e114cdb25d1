"""Grid geometry, derivative stencils, hessian stacks, metric fields."""

import numpy as np
import pytest

from jflow import (
    MetricField,
    PotentialField,
    ShapeError,
    SingularFormError,
    TorusGrid,
    class_constant_c,
    complex_hessian_of,
    cosine_mode,
    field_mean,
    integrate_top,
    load_field,
    metric_field,
    save_field,
)
from jflow.hermitian import as_matrix
from jflow.sampling import random_admissible_potential
from jflow.torus import (
    derivative_symbol,
    first_derivative,
    form_factor,
    gradient,
    laplacian_w,
    null_mode_projection,
    scalar_curvature,
    symbol_mesh,
)

TWO_PI = 2.0 * np.pi


def fd4_symbol(k, dx):
    """Exact multiplier of the five-point first-derivative stencil."""
    return (8.0 * np.sin(k * dx) - np.sin(2.0 * k * dx)) / (6.0 * dx)


class TestGridGeometry:
    def test_invariant_shape_and_measures(self):
        grid = TorusGrid(n=2, points=16, mode="invariant")
        assert grid.naxes == 2
        assert grid.shape == (16, 16)
        assert grid.dx == pytest.approx(TWO_PI / 16)
        # each cell carries the suppressed y-torus volume
        assert grid.cell_volume == pytest.approx(grid.dx**2 * TWO_PI**2)
        assert grid.volume == pytest.approx(TWO_PI**4)

    def test_full_shape_and_measures(self):
        grid = TorusGrid(n=1, points=16, mode="full")
        assert grid.naxes == 2
        assert grid.cell_volume == pytest.approx(grid.dx**2)
        assert grid.volume == pytest.approx(TWO_PI**2)

    def test_validation(self):
        with pytest.raises(ShapeError):
            TorusGrid(n=0, points=16)
        with pytest.raises(ShapeError):
            TorusGrid(n=1, points=4)
        with pytest.raises(ShapeError):
            TorusGrid(n=1, points=16, mode="radial")

    def test_cell_centred_samples(self):
        grid = TorusGrid(n=1, points=8)
        x = grid.axis_coordinate(0).ravel()
        assert x[0] == pytest.approx(0.5 * grid.dx)
        assert x[-1] == pytest.approx(TWO_PI - 0.5 * grid.dx)

    def test_axis_out_of_range(self):
        grid = TorusGrid(n=1, points=8)
        with pytest.raises(ShapeError):
            grid.axis_coordinate(1)

    def test_unit_density_integrates_to_volume(self):
        for mode in ("invariant", "full"):
            grid = TorusGrid(n=2, points=8, mode=mode)
            assert integrate_top(np.ones(grid.shape), grid) == pytest.approx(
                grid.volume, rel=1e-13
            )

    def test_cosine_integrates_to_zero(self):
        grid = TorusGrid(n=2, points=16)
        f = cosine_mode(grid, [2, 1], 1.3, 0.4)
        assert integrate_top(f, grid) == pytest.approx(0.0, abs=1e-10)
        assert field_mean(f + 3.5, grid) == pytest.approx(3.5, rel=1e-13)

    def test_cosine_wavevector_validation(self):
        grid = TorusGrid(n=2, points=8)
        with pytest.raises(ShapeError):
            cosine_mode(grid, [1, 0, 0])


class TestDerivatives:
    def test_fd4_symbol_identity(self):
        # On a pure mode the stencil acts as an exact multiplier, so the
        # comparison is a trig identity, not an approximation.
        grid = TorusGrid(n=1, points=32)
        x = grid.axis_coordinate(0)
        for k in (1, 3, 7):
            f = np.cos(k * x + 0.3).reshape(grid.shape)
            want = -fd4_symbol(k, grid.dx) * np.sin(k * x + 0.3).reshape(grid.shape)
            got = first_derivative(f, grid, 0, "fd4")
            assert np.max(np.abs(got - want)) < 1e-13

    def test_fd4_fourth_order(self):
        errs = []
        for points in (16, 32, 64):
            grid = TorusGrid(n=1, points=points)
            x = grid.axis_coordinate(0)
            f = np.cos(x).reshape(grid.shape)
            got = first_derivative(f, grid, 0, "fd4")
            errs.append(np.max(np.abs(got + np.sin(x).reshape(grid.shape))))
        assert errs[1] / errs[0] < 1.1 / 16.0
        assert errs[2] / errs[1] < 1.1 / 16.0

    def test_spectral_exact_below_nyquist(self):
        grid = TorusGrid(n=1, points=16)
        x = grid.axis_coordinate(0)
        f = np.cos(5 * x + 1.1).reshape(grid.shape)
        got = first_derivative(f, grid, 0, "spectral")
        assert np.max(np.abs(got + 5 * np.sin(5 * x + 1.1).reshape(grid.shape))) < 1e-12

    def test_spectral_exact_on_odd_grid(self):
        grid = TorusGrid(n=1, points=9)
        x = grid.axis_coordinate(0)
        f = np.cos(4 * x).reshape(grid.shape)
        got = first_derivative(f, grid, 0, "spectral")
        assert np.max(np.abs(got + 4 * np.sin(4 * x).reshape(grid.shape))) < 1e-12

    @pytest.mark.parametrize("deriv", ["fd4", "spectral"])
    @pytest.mark.parametrize("points", [16, 9])
    def test_derivative_symbol_matches_first_derivative(self, deriv, points):
        # every bin, Nyquist included: d/dx cos(kx + 0.3) = -s(k) sin(kx + 0.3)
        grid = TorusGrid(n=1, points=points)
        x = grid.axis_coordinate(0)
        symbol = derivative_symbol(grid, deriv)
        for k, s in zip(np.fft.fftfreq(points, d=1.0 / points), symbol):
            f = np.cos(k * x + 0.3).reshape(grid.shape)
            want = -s * np.sin(k * x + 0.3).reshape(grid.shape)
            got = first_derivative(f, grid, 0, deriv)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_summation_by_parts_exact(self, rng):
        grid = TorusGrid(n=2, points=16)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        for deriv in ("fd4", "spectral"):
            lhs = integrate_top(f * first_derivative(g, grid, 0, deriv), grid)
            rhs = -integrate_top(first_derivative(f, grid, 0, deriv) * g, grid)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_nyquist_mode_annihilated(self):
        grid = TorusGrid(n=1, points=16)
        x = grid.axis_coordinate(0)
        # on a cell-centred grid the Nyquist sine samples to alternating +-1
        f = np.sin(8 * x).reshape(grid.shape)
        assert np.max(np.abs(f) - 1.0) < 1e-12
        for deriv in ("fd4", "spectral"):
            assert np.max(np.abs(first_derivative(f, grid, 0, deriv))) < 1e-12

    @pytest.mark.parametrize("points", [12, 9])
    @pytest.mark.parametrize("layout", [(3, "invariant"), (2, "full")])
    def test_fd4_matches_roll_reference(self, rng, points, layout):
        # the sliced stencil reads the same neighbours as np.roll and keeps
        # the expression, so it is bit-identical on every axis
        n, mode = layout
        grid = TorusGrid(n=n, points=points, mode=mode)
        real = rng.standard_normal(grid.shape)
        fields = (real, real + 1j * rng.standard_normal(grid.shape))
        for values in fields:
            for axis in range(grid.naxes):
                up1 = np.roll(values, -1, axis=axis)
                dn1 = np.roll(values, 1, axis=axis)
                up2 = np.roll(values, -2, axis=axis)
                dn2 = np.roll(values, 2, axis=axis)
                want = (8.0 * (up1 - dn1) - (up2 - dn2)) / (12.0 * grid.dx)
                got = first_derivative(values, grid, axis, "fd4")
                assert np.array_equal(got, want)

    def test_validation(self):
        grid = TorusGrid(n=1, points=8)
        with pytest.raises(ShapeError):
            first_derivative(np.zeros((4,)), grid, 0)
        with pytest.raises(ShapeError):
            first_derivative(grid.zeros(), grid, 2)
        with pytest.raises(ShapeError):
            first_derivative(grid.zeros(), grid, 0, deriv="fd2")
        # the multi-pass routes check their input once, up front
        for route in (gradient, complex_hessian_of):
            with pytest.raises(ShapeError):
                route(np.zeros((4,)), grid)
            with pytest.raises(ShapeError):
                route(grid.zeros(), grid, "fd2")
        # a complex field would lose its imaginary part in the Hessian
        for mode in ("invariant", "full"):
            grid = TorusGrid(n=2, points=8, mode=mode)
            with pytest.raises(ShapeError):
                complex_hessian_of(grid.zeros() + 1j, grid)

    def test_gradient_length(self):
        grid = TorusGrid(n=2, points=8, mode="full")
        assert len(gradient(grid.zeros(), grid)) == 4


class TestComplexHessian:
    @pytest.mark.parametrize("deriv", ["fd4", "spectral"])
    @pytest.mark.parametrize("layout", [(2, "invariant"), (2, "full")])
    def test_matches_composed_first_derivatives(self, rng, deriv, layout):
        # the passes skip first_derivative's per-call checks, not its
        # arithmetic: every entry is bit-identical to the public route
        n, mode = layout
        grid = TorusGrid(n=n, points=8, mode=mode)
        values = rng.standard_normal(grid.shape)

        def second(j, k):
            # the lower axis is differentiated first, as the Hessian does
            j, k = min(j, k), max(j, k)
            return first_derivative(first_derivative(values, grid, j, deriv),
                                    grid, k, deriv)

        hess = complex_hessian_of(values, grid, deriv)
        for a in range(n):
            for b in range(a, n):
                if mode == "invariant":
                    want = 0.25 * second(a, b)
                else:
                    real = second(a, b) + second(n + a, n + b)
                    imag = second(a, n + b) - second(n + a, b)
                    want = (0.25 * real if a == b
                            else 0.25 * (real + 1j * imag))
                assert np.array_equal(hess[..., a, b], want)

    @pytest.mark.parametrize("deriv", ["fd4", "spectral"])
    @pytest.mark.parametrize("mode", ["invariant", "full"])
    def test_symbol_mesh_gives_hessian_symbol(self, deriv, mode):
        # entry (a, b) multiplies the mode k by -(1/4) conj(w_a) w_b, which
        # is even in k, so it scales a real cosine mode by the same factor;
        # the last wavenumber lies in the half spectrum the mesh covers
        grid = TorusGrid(n=2, points=8, mode=mode)
        kvec = (1, 2, 3, 1)[: grid.naxes]
        wave = cosine_mode(grid, kvec, 1.0, 0.3)
        hess = complex_hessian_of(wave, grid, deriv)
        w = symbol_mesh(grid, deriv)
        shape = np.broadcast_shapes(*(wa.shape for wa in w))
        at = [np.broadcast_to(wa, shape)[kvec] for wa in w]
        for a in range(2):
            for b in range(2):
                want = -0.25 * np.conj(at[a]) * at[b] * wave
                assert np.max(np.abs(hess[..., a, b] - want)) < 1e-12

    def test_invariant_symbol_identity(self):
        grid = TorusGrid(n=1, points=64)
        f = cosine_mode(grid, [1], 1.0)
        h = complex_hessian_of(f, grid, "fd4")
        s = fd4_symbol(1, grid.dx)
        assert np.max(np.abs(h[..., 0, 0] + 0.25 * s * s * f)) < 1e-13
        # and the symbol is itself fourth-order accurate
        assert np.max(np.abs(h[..., 0, 0] + 0.25 * f)) < 1e-5

    def test_invariant_is_real_symmetric(self, rng):
        grid = TorusGrid(n=2, points=16)
        f = cosine_mode(grid, [1, 2], 0.7, 0.2) + cosine_mode(grid, [2, 0], 0.4)
        h = complex_hessian_of(f, grid, "fd4")
        assert not np.iscomplexobj(h)
        assert np.array_equal(h[..., 0, 1], h[..., 1, 0])

    def test_full_mode_hermitian_exactly(self):
        grid = TorusGrid(n=2, points=8, mode="full")
        f = cosine_mode(grid, [1, 0, 0, 1], 0.5) + cosine_mode(grid, [0, 1, 1, 0], 0.3)
        h = complex_hessian_of(f, grid, "spectral")
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))

    def test_full_mode_separable_oracle(self):
        # phi = cos(x) cos(y) in one complex variable has
        # d^2 phi / dz dzbar = (phi_xx + phi_yy) / 4 = -phi / 2.
        grid = TorusGrid(n=1, points=16, mode="full")
        x = grid.axis_coordinate(0)
        y = grid.axis_coordinate(1)
        f = np.cos(x) * np.cos(y)
        h = complex_hessian_of(f, grid, "spectral")
        assert np.max(np.abs(h[..., 0, 0] + 0.5 * f)) < 1e-12
        assert np.max(np.abs(h[..., 0, 0].imag)) < 1e-13

    def test_full_mode_off_diagonal_phase(self):
        # phi = cos(x_1 + y_2) has purely imaginary mixed entry -i cos / 4.
        grid = TorusGrid(n=2, points=8, mode="full")
        f = cosine_mode(grid, [1, 0, 0, 1])
        h = complex_hessian_of(f, grid, "spectral")
        assert np.max(np.abs(h[..., 0, 1] + 0.25j * f)) < 1e-12

    def test_full_reduces_to_invariant_on_x_only_fields(self):
        inv = TorusGrid(n=1, points=16, mode="invariant")
        ful = TorusGrid(n=1, points=16, mode="full")
        f_inv = cosine_mode(inv, [2], 0.8, 0.5)
        f_ful = np.broadcast_to(
            f_inv.reshape(16, 1), ful.shape
        ).copy()
        h_inv = complex_hessian_of(f_inv, inv, "fd4")
        h_ful = complex_hessian_of(f_ful, ful, "fd4")
        assert np.max(np.abs(h_ful[..., 0, 0].real - h_inv[:, None, 0, 0])) < 1e-13
        assert np.max(np.abs(h_ful[..., 0, 0].imag)) < 1e-13


class TestNullModes:
    def test_constant_removed(self):
        grid = TorusGrid(n=2, points=16)
        out = null_mode_projection(np.full(grid.shape, 2.7), grid)
        assert np.max(np.abs(out)) < 1e-13

    def test_live_modes_preserved(self):
        grid = TorusGrid(n=2, points=16)
        f = cosine_mode(grid, [1, 3], 0.9, 0.1)
        assert np.max(np.abs(null_mode_projection(f, grid) - f)) < 1e-12

    def test_nyquist_sine_removed(self):
        grid = TorusGrid(n=1, points=16)
        x = grid.axis_coordinate(0)
        f = np.sin(8 * x).reshape(grid.shape)
        assert np.max(np.abs(null_mode_projection(f, grid))) < 1e-12

    def test_idempotent(self, rng):
        grid = TorusGrid(n=1, points=16)
        f = rng.standard_normal(grid.shape)
        once = null_mode_projection(f, grid)
        twice = null_mode_projection(once, grid)
        assert np.max(np.abs(twice - once)) < 1e-13

    @pytest.mark.parametrize("points", [16, 9])
    @pytest.mark.parametrize("layout", [(1, "invariant"), (2, "invariant"),
                                        (3, "invariant"), (1, "full")])
    def test_real_route_matches_complex_route(self, rng, points, layout):
        n, mode = layout
        grid = TorusGrid(n=n, points=points, mode=mode)
        f = rng.standard_normal(grid.shape)
        got = null_mode_projection(f, grid)
        assert got.dtype == np.float64 and got.shape == grid.shape
        fhat = np.fft.fftn(f)
        dead = [0, points // 2] if points % 2 == 0 else [0]
        mask = np.zeros(grid.shape, dtype=bool)
        mask[np.ix_(*([np.array(dead)] * grid.naxes))] = True
        want = np.fft.ifftn(np.where(mask, 0.0, fhat)).real
        assert np.max(np.abs(got - want)) <= 1e-14
        # exactly the dead bins are removed; every other bin is kept
        ghat = np.fft.fftn(got)
        scale = np.abs(fhat).max()
        assert np.max(np.abs(ghat[mask])) < 1e-13 * scale
        assert np.max(np.abs(ghat - fhat)[~mask]) < 1e-13 * scale
        assert mask.sum() == len(dead) ** grid.naxes

    def test_complex_input_keeps_imaginary_part(self, rng):
        grid = TorusGrid(n=2, points=10)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        out = null_mode_projection(f + 1j * g, grid)
        want = null_mode_projection(f, grid) + 1j * null_mode_projection(g, grid)
        assert np.max(np.abs(out - want)) < 1e-14


class TestPotentialIO:
    def test_shape_validation(self):
        grid = TorusGrid(n=2, points=8)
        with pytest.raises(ShapeError):
            PotentialField(grid, np.zeros((8,)))

    def test_roundtrip(self, tmp_path):
        grid = TorusGrid(n=2, points=8, mode="invariant")
        field = PotentialField(grid, cosine_mode(grid, [1, 1], 0.3))
        target = tmp_path / "field.npz"
        save_field(target, field, meta={"note": "fixture"})
        back, extra = load_field(target)
        assert back.grid == grid
        assert np.array_equal(back.values, field.values)
        assert extra["note"] == "fixture"


class TestMetricField:
    def test_positivity_loss_raises(self):
        grid = TorusGrid(n=1, points=16)
        phi = cosine_mode(grid, [1], 4.5)
        with pytest.raises(SingularFormError):
            metric_field(grid, np.eye(1), phi)

    def test_background_shape_validation(self):
        grid = TorusGrid(n=2, points=8)
        with pytest.raises(ShapeError):
            MetricField(grid, np.eye(3), grid.zeros(),
                        np.zeros(grid.shape + (2, 2)), "fd4")
        with pytest.raises(ShapeError):
            MetricField(grid, np.eye(2), grid.zeros(),
                        np.zeros(grid.shape + (3, 3)), "fd4")

    @pytest.fixture
    def sample_metric(self):
        grid = TorusGrid(n=2, points=12)
        chi0 = np.array([[2.0, 0.3], [0.3, 1.5]])
        phi = cosine_mode(grid, [1, 0], 0.4) + cosine_mode(grid, [1, 1], 0.2, 0.9)
        return metric_field(grid, chi0, phi)

    def test_det_matches_numpy(self, sample_metric):
        want = np.linalg.det(sample_metric.chi)
        if np.iscomplexobj(want):
            want = want.real
        assert np.max(np.abs(sample_metric.det() - want)) < 1e-12

    def test_trace_matches_numpy(self, sample_metric):
        g = np.array([[1.0, 0.2], [0.2, 0.8]])
        want = np.einsum(
            "...ab,ba->...", np.linalg.inv(sample_metric.chi), g
        )
        got = sample_metric.trace_with(form_factor(g))
        assert np.max(np.abs(got - want.real)) < 1e-12

    def test_inverse_matches_numpy(self, sample_metric):
        want = np.linalg.inv(sample_metric.chi)
        assert np.max(np.abs(sample_metric.inverse() - want)) < 1e-11

    def test_h_matrix_matches_numpy(self, sample_metric):
        g = np.array([[1.0, 0.0], [0.0, 2.0]])
        inv = np.linalg.inv(sample_metric.chi)
        want = inv @ g @ inv
        assert np.max(np.abs(sample_metric.h_matrix(g) - want)) < 1e-11

    def test_relative_eigenvalues_match_scalar(self, sample_metric):
        from jflow import relative_spectrum

        g = np.array([[1.0, 0.1], [0.1, 0.9]])
        lam = sample_metric.relative_eigenvalues(g)
        chi_pt = sample_metric.chi[3, 5]
        want = relative_spectrum(g, chi_pt).lambdas
        assert np.allclose(lam[3, 5], want, rtol=1e-10)


def _random_form(rng, n, complex_entries):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return as_matrix(a @ a.conj().T + n * np.eye(n))


def _lapack_route(chi, g):
    """det, trace against g, inverse and h through np.linalg.cholesky and
    np.linalg.solve, the route the entrywise factor replaced."""
    n = chi.shape[-1]
    low = np.linalg.cholesky(chi)
    det = np.prod(low[..., range(n), range(n)].real, axis=-1) ** 2
    gm = g if g.imag.any() else g.real
    sol = np.linalg.solve(low, np.broadcast_to(np.linalg.cholesky(gm),
                                               low.shape))
    trace = (np.abs(sol) ** 2).sum(axis=(-2, -1))
    low_inv = np.linalg.solve(low, np.broadcast_to(np.eye(n), low.shape))
    inv = low_inv.conj().swapaxes(-1, -2) @ low_inv
    return det, trace, inv, inv @ gm @ inv


def _raises(fn, errors) -> bool:
    try:
        fn()
    except errors:
        return True
    return False


class TestEntrywiseFactor:
    """The entrywise lower factor against the LAPACK Cholesky/solve route."""

    @pytest.mark.parametrize("complex_omega", [False, True])
    @pytest.mark.parametrize("complex_chi0", [False, True])
    @pytest.mark.parametrize("case", [(1, "invariant", 16), (2, "invariant", 12),
                                      (3, "invariant", 8), (4, "invariant", 8),
                                      (1, "full", 12), (2, "full", 8)])
    def test_matches_lapack_route(self, case, complex_chi0, complex_omega):
        n, mode, points = case
        rng = np.random.default_rng([n, points, complex_chi0, complex_omega])
        grid = TorusGrid(n=n, points=points, mode=mode)
        chi0 = _random_form(rng, n, complex_chi0)
        omega = _random_form(rng, n, complex_omega)
        phi = random_admissible_potential(rng, grid, chi0, band=2,
                                          amplitude=0.8, rel_margin=0.2)
        metric = metric_field(grid, chi0, phi)
        # a Hermitian 1 x 1 form is real, so n = 1 has no complex chi0
        complex_chi = (complex_chi0 and n > 1) or mode == "full"
        assert np.iscomplexobj(metric.chi) == complex_chi
        det, trace, inv, h = _lapack_route(metric.chi, omega)
        got = (metric.det(), metric.trace_with(form_factor(omega)),
               metric.inverse(), metric.h_matrix(omega))
        for value, want in zip(got, (det, trace, inv, h)):
            assert value.shape == want.shape
            assert np.max(np.abs(value - want)) <= 1e-13 * np.max(np.abs(want))

    def test_form_factor_matches_lapack(self, rng):
        for n in (1, 2, 3, 4):
            for complex_entries in (False, True):
                g = _random_form(rng, n, complex_entries)
                got = form_factor(g)
                want = np.linalg.cholesky(g if g.imag.any() else g.real)
                assert np.iscomplexobj(got) == (complex_entries and n > 1)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_positivity_boundary_matches_lapack(self, n, complex_entries):
        # chi with smallest eigenvalue +-1e-14 |chi| at one grid point:
        # SingularFormError exactly where np.linalg.cholesky raises
        rng = np.random.default_rng([7, n, complex_entries])
        grid = TorusGrid(n=n, points=8)
        dtype = complex if complex_entries else float
        chi0 = np.zeros((n, n), dtype=dtype)
        outcomes = []
        for _ in range(12):
            a = rng.standard_normal((n, n))
            if complex_entries:
                a = a + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(a)
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            for sign in (1.0, -1.0):
                ev = scale * np.concatenate(
                    ([sign * 1e-14], rng.uniform(0.5, 1.0, n - 1)))
                point = as_matrix((q * ev) @ q.conj().T)
                stack = np.empty(grid.shape + (n, n), dtype=dtype)
                stack[...] = scale * np.eye(n)
                stack[(3,) * grid.naxes] = point if complex_entries else point.real
                lapack = _raises(lambda: np.linalg.cholesky(stack),
                                 np.linalg.LinAlgError)
                ours = _raises(lambda: MetricField(grid, chi0, grid.zeros(),
                                                   stack, "fd4"),
                               SingularFormError)
                assert ours == lapack
                outcomes.append(ours)
        assert any(outcomes) and not all(outcomes)

    def test_zero_pivot_raises(self):
        grid = TorusGrid(n=2, points=8)
        stack = np.empty(grid.shape + (2, 2))
        stack[...] = np.eye(2)
        stack[2, 5] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack)
        with pytest.raises(SingularFormError):
            MetricField(grid, np.zeros((2, 2)), grid.zeros(), stack, "fd4")

    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (1, 1)])
    def test_nan_passes_the_pivot_test(self, entry):
        # as through LAPACK, a NaN is no positivity failure: it propagates
        # into det and the trace for the flow's finiteness check to catch
        grid = TorusGrid(n=2, points=8)
        hess = np.zeros(grid.shape + (2, 2))
        hess[(3, 4) + entry] = np.nan
        np.linalg.cholesky(2.0 * np.eye(2) + hess)
        metric = MetricField(grid, 2.0 * np.eye(2), grid.zeros(), hess, "fd4")
        trace = metric.trace_with(form_factor(np.eye(2)))
        for field in (metric.det(), trace):
            assert np.isnan(field[3, 4])
            assert np.isfinite(np.delete(field.ravel(), 3 * 8 + 4)).all()


class TestCurvatureAndConstants:
    def test_laplacian_is_weighted_trace(self):
        grid = TorusGrid(n=2, points=16)
        phi = cosine_mode(grid, [1, 2], 0.6)
        h = complex_hessian_of(phi, grid, "fd4")
        got = laplacian_w(np.eye(2), h)
        assert np.max(np.abs(got - (h[..., 0, 0] + h[..., 1, 1]))) < 1e-13

    def test_class_constant_flat_example(self):
        assert class_constant_c(np.diag([1.0, 4.0]), np.diag([1.0, 2.0])) == (
            pytest.approx(1.5)
        )
        assert class_constant_c(np.eye(2), 2 * np.eye(2)) == pytest.approx(0.5)

    def test_flat_metric_has_zero_curvature(self):
        grid = TorusGrid(n=2, points=12)
        metric = metric_field(grid, np.diag([1.0, 2.0]), grid.zeros())
        assert np.max(np.abs(scalar_curvature(metric))) < 1e-13

    def test_curvature_integral_vanishes(self):
        # int R det(chi) dV collapses to the integral of a pure derivative
        # for n = 1, and the circulant stencils have exact zero column sums.
        grid = TorusGrid(n=1, points=32)
        metric = metric_field(grid, np.eye(1), cosine_mode(grid, [1], 0.5))
        r = scalar_curvature(metric)
        total = integrate_top(r * metric.det(), grid)
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_curvature_sign_example(self):
        # log chi is locally convex at a nondegenerate minimum of chi, so
        # R = -chi^{-1} ddbar(log chi) is negative at the dip bottom of a
        # single-mode n = 1 metric, and positive somewhere else since the
        # weighted integral vanishes.
        grid = TorusGrid(n=1, points=64)
        metric = metric_field(grid, np.eye(1), cosine_mode(grid, [1], 0.5))
        r = scalar_curvature(metric)
        idx = int(np.argmin(metric.det()))
        assert r.ravel()[idx] < 0
        assert r.max() > 0
