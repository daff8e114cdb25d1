"""Grid geometry, derivative stencils, hessian stacks, metric fields."""

import numpy as np
import pytest

from jflow import (
    MetricField,
    ShapeError,
    SingularFormError,
    TorusGrid,
    class_constant_c,
    complex_hessian_of,
    cosine_mode,
    integrate_top,
    load_field,
    metric_field,
    save_field,
)
from jflow.hermitian import SettingError, as_matrix
from jflow.sampling import random_admissible_potential
from jflow import torus
from jflow.torus import (
    _hessian_trace,
    derivative_symbol,
    form_factor,
    gradient,
    null_mode_projection,
    scalar_curvature,
    symbol_mesh,
)
from oracles import (laplacian_einsum, scalar_curvature_einsum,
                     spectral_derivative_per_call)

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
        # (grid, the field it is refused at, the start of the reason);
        # n = 10**30 shows n is checked before points ** naxes is taken,
        # and 128^3 cells of 3 x 3 Hessians are 18.9 million entries
        for kwargs, field, reason in (
                ({"n": 0, "points": 16}, "n", "must be at least 1"),
                ({"n": 5, "points": 8}, "n", "must be at most 4"),
                ({"n": 10**30, "points": 8}, "n", "must be at most 4"),
                ({"n": 1, "points": 4}, "points", "must be at least 8"),
                ({"n": 1, "points": 16, "mode": "radial"}, "mode",
                 "must be one of"),
                ({"n": 2, "points": 4096}, "points", "points ** 2 = "),
                ({"n": 3, "points": 128}, "points", "points ** 3 = ")):
            with pytest.raises(SettingError) as info:
                TorusGrid(**kwargs)
            assert info.value.field == field
            assert info.value.reason.startswith(reason)

    def test_message_names_the_field_once(self):
        # the text the CLI prints for a config: field 'points': <reason>
        with pytest.raises(SettingError) as info:
            TorusGrid(n=2, points=4096)
        assert str(info.value).startswith("field 'points': points ** 2 = ")
        assert str(info.value) == f"field 'points': {info.value.reason}"

    @pytest.mark.parametrize("kwargs", [
        pytest.param({"n": 2, "points": 2048}, id="n2-cells-cap"),
        pytest.param({"n": 4, "points": 32}, id="n4-hessian-cap"),
    ])
    def test_at_a_cap_accepted(self, kwargs):
        cells = TorusGrid(**kwargs).points ** kwargs["n"]
        assert (cells == torus.MAX_GRID_CELLS
                or cells * kwargs["n"] ** 2 == torus.MAX_HESSIAN_ENTRIES)

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
        assert integrate_top(f + 3.5, grid) / grid.volume == pytest.approx(
            3.5, rel=1e-13)

    def test_cosine_wavevector_validation(self):
        # a fractional wavevector is not periodic on the torus, and a bool
        # is not a wavenumber; neither may be cast to one
        grid = TorusGrid(n=2, points=8)
        width = "wavevector has 3 entries, grid has 2 axes"
        for kvecs, reason in (([1, 0, 0], width),
                              ([[1, 0, 0], [0, 1, 0]], width),
                              ([1.5, 0], "table of integers"),
                              ([True, 0], "table of integers"),
                              ([[1, 0], [1]], "table of integers"),
                              ([[[1, 0]]], "table of integers")):
            with pytest.raises(ShapeError, match=reason):
                cosine_mode(grid, kvecs)

    @pytest.mark.parametrize("budget", [1, 37, 5 * 3 * 8 * 8 + 1, None])
    @pytest.mark.parametrize("mode", ["invariant", "full"])
    def test_mode_table_equals_one_mode_calls(self, monkeypatch, mode, budget):
        # 12 modes with zero and negative components for a stack of three
        # fields, in blocks of one, five (invariant only) or the default
        grid = TorusGrid(n=2, points=8, mode=mode)
        if budget is not None:
            monkeypatch.setattr(torus, "_BLOCK_CELLS", budget)
        rng = np.random.default_rng(6)
        table = rng.integers(-3, 4, size=(12, grid.naxes))
        table[0] = 0
        table[1, 0] = 0
        amplitude = rng.standard_normal((12, 3))
        phase = rng.uniform(0.0, TWO_PI, (12, 3))
        stack = cosine_mode(grid, table, amplitude, phase)
        assert stack.shape == (3,) + grid.shape
        for f in range(3):
            want = grid.zeros()
            for k, a, p in zip(table, amplitude[:, f], phase[:, f]):
                want = want + cosine_mode(grid, k, a, p)
            assert stack[f].tobytes() == want.tobytes()
            one = cosine_mode(grid, table.tolist(), amplitude[:, f],
                              phase[:, f])
            assert one.tobytes() == want.tobytes()


class TestDerivatives:
    def test_fd4_symbol_identity(self):
        # On a pure mode the stencil acts as an exact multiplier, so the
        # comparison is a trig identity, not an approximation.
        grid = TorusGrid(n=1, points=32)
        x = grid.axis_coordinate(0)
        for k in (1, 3, 7):
            f = np.cos(k * x + 0.3).reshape(grid.shape)
            want = -fd4_symbol(k, grid.dx) * np.sin(k * x + 0.3).reshape(grid.shape)
            got = gradient(f, grid, "fd4")[0]
            assert np.max(np.abs(got - want)) < 1e-13

    def test_fd4_fourth_order(self):
        errs = []
        for points in (16, 32, 64):
            grid = TorusGrid(n=1, points=points)
            x = grid.axis_coordinate(0)
            f = np.cos(x).reshape(grid.shape)
            got = gradient(f, grid, "fd4")[0]
            errs.append(np.max(np.abs(got + np.sin(x).reshape(grid.shape))))
        assert errs[1] / errs[0] < 1.1 / 16.0
        assert errs[2] / errs[1] < 1.1 / 16.0

    def test_spectral_exact_below_nyquist(self):
        grid = TorusGrid(n=1, points=16)
        x = grid.axis_coordinate(0)
        f = np.cos(5 * x + 1.1).reshape(grid.shape)
        got = gradient(f, grid, "spectral")[0]
        assert np.max(np.abs(got + 5 * np.sin(5 * x + 1.1).reshape(grid.shape))) < 1e-12

    def test_spectral_exact_on_odd_grid(self):
        grid = TorusGrid(n=1, points=9)
        x = grid.axis_coordinate(0)
        f = np.cos(4 * x).reshape(grid.shape)
        got = gradient(f, grid, "spectral")[0]
        assert np.max(np.abs(got + 4 * np.sin(4 * x).reshape(grid.shape))) < 1e-12

    @pytest.mark.parametrize("n, mode, points", [
        (1, "invariant", 16), (2, "invariant", 9), (2, "full", 12),
        (3, "invariant", 8)])
    def test_cached_multiplier_matches_per_call(self, monkeypatch, n, mode,
                                                points):
        grid = TorusGrid(n=n, points=points, mode=mode)
        phi = random_admissible_potential(np.random.default_rng(points), grid,
                                          np.eye(n), band=3, deriv="spectral")

        def derivatives():
            return (gradient(phi, grid, "spectral")
                    + [complex_hessian_of(phi, grid, "spectral")])

        cached = derivatives()
        monkeypatch.setattr(torus, "_spectral_derivative",
                            spectral_derivative_per_call)
        for new, old in zip(cached, derivatives()):
            assert new.tobytes() == old.tobytes()

    def test_cached_multiplier_is_read_only(self):
        grid = TorusGrid(n=2, points=16, mode="full")
        mults = grid.spectral_multipliers
        assert grid.spectral_multipliers is mults
        assert [m.shape for m in mults] == [
            grid.axis_coordinate(j).shape for j in range(4)]
        for mult in mults:
            with pytest.raises(ValueError):
                mult[...] = 0.0

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
            got = gradient(f, grid, deriv)[0]
            assert np.max(np.abs(got - want)) < 1e-12

    def test_summation_by_parts_exact(self, rng):
        grid = TorusGrid(n=2, points=16)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        for deriv in ("fd4", "spectral"):
            lhs = integrate_top(f * gradient(g, grid, deriv)[0], grid)
            rhs = -integrate_top(gradient(f, grid, deriv)[0] * g, grid)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_nyquist_mode_annihilated(self):
        grid = TorusGrid(n=1, points=16)
        x = grid.axis_coordinate(0)
        # on a cell-centred grid the Nyquist sine samples to alternating +-1
        f = np.sin(8 * x).reshape(grid.shape)
        assert np.max(np.abs(f) - 1.0) < 1e-12
        for deriv in ("fd4", "spectral"):
            assert np.max(np.abs(gradient(f, grid, deriv)[0])) < 1e-12

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
                got = gradient(values, grid, "fd4")[axis]
                assert np.array_equal(got, want)

    def test_validation(self):
        grid = TorusGrid(n=1, points=8)
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
    @pytest.mark.parametrize("layout", [(2, "invariant"), (2, "full"),
                                        (1, "full"), (3, "invariant")])
    def test_matches_composed_first_derivatives(self, rng, deriv, layout):
        # the passes skip gradient's per-call checks, not its arithmetic:
        # every entry is bit-identical to the public route
        n, mode = layout
        grid = TorusGrid(n=n, points=8, mode=mode)
        values = rng.standard_normal(grid.shape)

        def second(j, k):
            # the lower axis is differentiated first, as the Hessian does
            j, k = min(j, k), max(j, k)
            return gradient(gradient(values, grid, deriv)[j], grid, deriv)[k]

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


def _fft_mask_projection(values, grid):
    """Dead-mode removal by zeroing the dead FFT bins, the route the
    parity-class means replaced."""
    vhat = np.fft.fftn(values)
    dead = [0, grid.points // 2] if grid.points % 2 == 0 else [0]
    vhat[np.ix_(*([np.array(dead)] * grid.naxes))] = 0.0
    out = np.fft.ifftn(vhat)
    return out if np.iscomplexobj(values) else out.real


LAYOUTS = [(1, "invariant"), (2, "invariant"), (3, "invariant"),
           (1, "full"), (2, "full")]


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

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("points", [8, 9])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_fft_mask_route(self, layout, points, complex_field):
        n, mode = layout
        grid = TorusGrid(n=n, points=points, mode=mode)
        rng = np.random.default_rng([n, points, complex_field])
        v = rng.standard_normal(grid.shape)
        if complex_field:
            v = v + 1j * rng.standard_normal(grid.shape)
        got = null_mode_projection(v, grid)
        want = _fft_mask_projection(v, grid)
        assert got.dtype == v.dtype and got.shape == grid.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(v))


class TestPotentialIO:
    def test_shape_validation(self, tmp_path):
        target = tmp_path / "field.npz"
        save_field(target, TorusGrid(n=2, points=8), np.zeros((8,)))
        with pytest.raises(ShapeError):
            load_field(target)

    def test_roundtrip(self, tmp_path):
        grid = TorusGrid(n=2, points=8, mode="invariant")
        values = cosine_mode(grid, [1, 1], 0.3)
        target = tmp_path / "field.npz"
        save_field(target, grid, values, meta={"note": "fixture"})
        back, stored, header = load_field(target)
        assert back == grid
        assert np.array_equal(stored, values)
        assert header["note"] == "fixture"


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
        want = relative_spectrum(g, chi_pt)
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
        # packed from the upper triangle: exactly Hermitian, real diagonal
        assert np.array_equal(got[2], got[2].conj().swapaxes(-1, -2))
        assert not np.diagonal(got[2], axis1=-2, axis2=-1).imag.any()

    @pytest.mark.parametrize("complex_omega", [False, True])
    @pytest.mark.parametrize("points", [8, 9])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_h_matrix_matches_stack_matmul(self, layout, points,
                                           complex_omega):
        # the entrywise h against inv @ g @ inv, the batched-matmul route
        # it replaced
        n, mode = layout
        rng = np.random.default_rng([n, points, complex_omega, 1])
        grid = TorusGrid(n=n, points=points, mode=mode)
        chi0 = _random_form(rng, n, mode == "full")
        omega = _random_form(rng, n, complex_omega)
        phi = random_admissible_potential(rng, grid, chi0, band=2,
                                          amplitude=0.8, rel_margin=0.2)
        metric = metric_field(grid, chi0, phi)
        inv = metric.inverse()
        g = omega if (np.iscomplexobj(inv) or omega.imag.any()) else omega.real
        want = inv @ g @ inv
        got = metric.h_matrix(omega)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got, np.conj(got.swapaxes(-1, -2)))

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
    def test_nan_fails_the_pivot_test(self, entry):
        # LAPACK passes a NaN pivot; the factor refuses it as a
        # non-positive one, so no metric holds a NaN
        grid = TorusGrid(n=2, points=8)
        hess = np.zeros(grid.shape + (2, 2))
        hess[(3, 4) + entry] = np.nan
        np.linalg.cholesky(2.0 * np.eye(2) + hess)
        with pytest.raises(SingularFormError):
            MetricField(grid, 2.0 * np.eye(2), grid.zeros(), hess, "fd4")


def _random_hermitian_stack(rng, shape, n, complex_entries):
    a = rng.standard_normal(shape + (n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal(shape + (n, n))
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def _relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestHessianTrace:
    """The one Hermitian contraction against the einsum routes it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("coef_complex", [False, True])
    @pytest.mark.parametrize("hess_complex", [False, True])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_einsum_on_hermitian_stacks(self, n, coef_complex,
                                                 hess_complex, stacked):
        # a real Hessian is the invariant layout's, a complex one the full
        # layout's; the coefficient is a constant form or a stack
        rng = np.random.default_rng([n, coef_complex, hess_complex, stacked])
        hess = _random_hermitian_stack(rng, (5, 7), n, hess_complex)
        coef = _random_hermitian_stack(rng, (5, 7) if stacked else (), n,
                                       coef_complex)
        got = _hessian_trace(coef, hess)
        want = np.einsum("...ab,...ba->...", coef, hess).real
        assert got.shape == (5, 7) and got.dtype == np.float64
        assert _relative_gap(got, want) <= 1e-14

    @pytest.mark.parametrize("deriv", ["fd4", "spectral"])
    @pytest.mark.parametrize("mode,n,points,complex_forms", [
        (mode, n, points, complex_forms)
        for mode, n, points in [
            ("invariant", 1, 16), ("invariant", 2, 12), ("invariant", 3, 8),
            ("invariant", 4, 8), ("full", 1, 12), ("full", 2, 8),
            ("full", 3, 8)]
        # the 8^6-point grid runs once per derivative mode, complex forms
        for complex_forms in (False, True)
        if (mode, n) != ("full", 3) or complex_forms
    ])
    def test_laplacian_and_curvature_match_einsum(self, mode, n, points,
                                                  deriv, complex_forms):
        grid = TorusGrid(n=n, points=points, mode=mode)
        rng = np.random.default_rng([n, points, deriv == "fd4", complex_forms])
        omega = _random_form(rng, n, complex_forms)
        chi0 = _random_form(rng, n, complex_forms)
        # three low modes, small next to chi0 >= n: admissible by a margin
        phi = sum(cosine_mode(grid, rng.integers(-1, 2, grid.naxes), 0.1,
                              rng.uniform(0.0, TWO_PI)) for _ in range(3))
        metric = metric_field(grid, chi0, phi, deriv)
        lap = _hessian_trace(np.linalg.inv(omega), metric.hessian)
        assert _relative_gap(lap, laplacian_einsum(omega, metric.hessian)) \
            <= 1e-14
        assert _relative_gap(scalar_curvature(metric),
                             scalar_curvature_einsum(metric)) <= 1e-14


class TestCurvatureAndConstants:
    def test_laplacian_is_weighted_trace(self):
        grid = TorusGrid(n=2, points=16)
        phi = cosine_mode(grid, [1, 2], 0.6)
        h = complex_hessian_of(phi, grid, "fd4")
        got = _hessian_trace(np.eye(2), h)
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
