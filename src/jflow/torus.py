"""Periodic grids, derivatives, and metric fields on flat tori.

A flat torus of complex dimension n is modelled as [0, 2pi)^{2n} with the
standard complex structure z_a = x_a + i y_a.  Two grid layouts are
supported.  The "invariant" layout samples only the x coordinates on an
n-dimensional grid and represents potentials constant along the y
directions; this is the workhorse layout, since every structure constant of
the problem survives the restriction.  The "full" layout samples all 2n real
coordinates.  TorusGrid owns the grid's ranges and caps: a grid past one
raises SettingError naming its field before any field is allocated.

Derivatives are fourth-order centred differences by default.  The complex
Hessian is built by composing two first-derivative passes rather than by a
dedicated second-derivative stencil: composition gives exact discrete
integration by parts against the grid sum, which the conservation-law tests
rely on.  The price is a 2^naxes-dimensional null space (modes whose axis
frequencies all lie in {0, N/2}); null_mode_projection removes it where it
matters.  A spectral derivative mode with the Nyquist bin zeroed shares the
same null space.  The fd4 stencil reads its neighbours as slices of one
wrap-padded copy of the field.

cosine_mode is the one route from a table of modes to a potential: it adds
the modes in table order, _BLOCK_CELLS cosines at a time.  It, the
derivatives, integrate_top and MetricField take a stack of fields as well as
one: the grid axes are the trailing ones, any leading axes index the fields,
and each field of a stack gets the same bits it would get on its own.

A MetricField factors chi = L L^* one entry of L at a time, each entry one
array operation over the whole grid, for any n; det, the trace against a
constant form, the inverse and h = chi^{-1} g chi^{-1} are read from that
factor, so a flow stage runs no per-point LAPACK call.  _hermitian_stack
packs the Hessian, the inverse and h; _hessian_trace contracts a Hermitian
coefficient with a Hessian for Newton, the blow-up monitor and curvature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

import numpy as np

from .hermitian import (SettingError, ShapeError, SingularFormError,
                        as_matrix, pencil_eigenvalues_batch, trace_pair)

TWO_PI = 2.0 * np.pi

DERIV_MODES = ("fd4", "spectral")
GRID_MODES = ("invariant", "full")
_BLOCK_CELLS = 1 << 14  # cosines per block of modes; sampling's block size
# grid caps: n up to 4, the largest tested, cells and Hessian entries
MAX_N = 4
MAX_GRID_CELLS = 2**22
MAX_HESSIAN_ENTRIES = 2**24


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced periodic grid on the torus [0, 2pi)^{2n}.

    n is the complex dimension, points the sample count per axis.  Samples
    sit at cell centres (i + 1/2) * dx, so midpoint quadrature applies.  In
    invariant mode the grid has n axes and each sample carries the volume of
    its cell times the (2pi)^n volume of the suppressed y torus.  n is
    checked first, so points ** naxes is only taken for n <= MAX_N.
    """

    n: int
    points: int
    mode: str = "invariant"

    def __post_init__(self):
        if self.n < 1:
            raise SettingError("n", "must be at least 1")
        if self.n > MAX_N:
            raise SettingError("n", f"must be at most {MAX_N}")
        if self.points < 8:
            raise SettingError("points", "must be at least 8")
        if self.mode not in GRID_MODES:
            raise SettingError("mode", f"must be one of {GRID_MODES}")
        cells = self.points ** self.naxes
        if cells > MAX_GRID_CELLS or cells * self.n**2 > MAX_HESSIAN_ENTRIES:
            raise SettingError("points", f"points ** {self.naxes} = {cells} "
                               f"cells; the caps are {MAX_GRID_CELLS} cells "
                               f"and {MAX_HESSIAN_ENTRIES} Hessian entries "
                               f"(cells n^2)")

    @property
    def naxes(self) -> int:
        return self.n if self.mode == "invariant" else 2 * self.n

    @property
    def dx(self) -> float:
        return TWO_PI / self.points

    @cached_property
    def shape(self) -> tuple:
        # read by every derivative pass, so built once per grid
        return (self.points,) * self.naxes

    @cached_property
    def spectral_multipliers(self) -> tuple:
        """Read-only i s(k) shaped for each axis; built once per grid."""
        mult = 1j * derivative_symbol(self, "spectral")
        mult.flags.writeable = False
        return tuple(mult.reshape(x.shape) for x in self.meshgrid())

    @property
    def cell_volume(self) -> float:
        suppressed = TWO_PI ** self.n if self.mode == "invariant" else 1.0
        return self.dx**self.naxes * suppressed

    @property
    def volume(self) -> float:
        return TWO_PI ** (2 * self.n)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate along one axis, shaped to broadcast over the grid."""
        if not 0 <= axis < self.naxes:
            raise ShapeError(f"axis {axis} out of range for {self.naxes} axes")
        x = (np.arange(self.points) + 0.5) * self.dx
        shape = [1] * self.naxes
        shape[axis] = self.points
        return x.reshape(shape)

    def meshgrid(self) -> list:
        return [self.axis_coordinate(j) for j in range(self.naxes)]

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def describe(self) -> dict:
        return {"n": self.n, "points": self.points, "mode": self.mode}


def cosine_mode(grid: TorusGrid, kvecs, amplitude=1.0, phase=0.0):
    """Sum of amplitude * cos(k . x + phase) over a (modes, naxes) integer
    table of wavevectors k (one wavevector is the table of one); amplitude
    and phase are (modes,) for one field, (modes, fields) for a stack."""
    table = np.array(kvecs, dtype=object, ndmin=2)  # keeps bools, raggedness
    if table.ndim != 2 or any(isinstance(k, bool) or not isinstance(
            k, (int, np.integer)) for k in table.flat):
        raise ShapeError("wavevectors must form a table of integers")
    if table.shape[1] != grid.naxes:
        raise ShapeError(f"wavevector has {table.shape[1]} entries, grid has "
                         f"{grid.naxes} axes")
    table = table.astype(np.int64)
    lead = np.broadcast_shapes(np.shape(amplitude), np.shape(phase))[1:]
    coef, phase = (np.broadcast_to(a, table.shape[:1] + lead)
                   for a in (amplitude, phase))
    phi = np.zeros(lead + grid.shape)
    block = max(1, _BLOCK_CELLS // phi.size)
    ks = table.reshape(table.shape + (1,) * phi.ndim)
    for lo in range(0, len(table), block):
        modes = slice(lo, lo + block)
        arg = sum(ks[modes, j] * x for j, x in enumerate(grid.meshgrid()))
        rows = (modes, ...) + (None,) * grid.naxes
        phi = sum(coef[rows] * np.cos(arg + phase[rows]), phi)
    return phi


def _fd4(values: np.ndarray, axis: int, dx: float) -> np.ndarray:
    # the four neighbours are slices of one copy wrapped by two cells
    lead = (slice(None),) * (axis % values.ndim)
    points = values.shape[axis]
    padded = np.concatenate((values[lead + (slice(-2, None),)], values,
                             values[lead + (slice(None, 2),)]), axis=axis)
    up1, dn1, up2, dn2 = (padded[lead + (slice(2 + s, 2 + s + points),)]
                          for s in (1, -1, 2, -2))
    return (8.0 * (up1 - dn1) - (up2 - dn2)) / (12.0 * dx)


def derivative_symbol(grid: TorusGrid, deriv: str = "fd4") -> np.ndarray:
    """Fourier symbol s(k) of the first derivative along one axis.

    Each derivative pass of gradient multiplies FFT bin k (numpy bin order)
    by i s(k); the spectral derivative applies it directly, and products of
    it give the symbols of composed-stencil operators.  Period 2pi makes the
    wavenumbers integers: s(k) = (8 sin k dx - sin 2k dx) / (6 dx) for fd4
    and s(k) = k for spectral.  The Nyquist bin is exactly 0 in both: the
    spectral derivative zeroes it to keep derivatives of real fields real,
    and the fd4 stencil annihilates it exactly where the formula leaves a
    rounding residue.
    """
    points = grid.points
    # integer wavenumbers in numpy's FFT bin order, built without np.fft:
    # the fd4 flow never loads it otherwise
    k = np.arange(points, dtype=float)
    k[(points + 1) // 2:] -= points
    if deriv == "fd4":
        dx = grid.dx
        k = (8.0 * np.sin(k * dx) - np.sin(2.0 * k * dx)) / (6.0 * dx)
    elif deriv != "spectral":
        raise ShapeError(f"derivative mode must be one of {DERIV_MODES}")
    if points % 2 == 0:
        k[points // 2] = 0.0
    return k


def symbol_mesh(grid: TorusGrid, deriv: str = "fd4") -> list:
    """Per-variable symbols w_a of the complex Hessian, over the real-FFT
    half spectrum.

    Entry (a, b) of complex_hessian_of multiplies Fourier bin k by
    -(1/4) conj(w_a(k)) w_b(k), with w_a = s(k_{x_a}) on invariant grids
    and s(k_{x_a}) + i s(k_{y_a}) on full grids, s = derivative_symbol.  The
    mesh is sparse: each w_a broadcasts against the rfftn layout, which
    keeps the non-negative half of the last axis.  Frozen-coefficient
    symbols of second-order operators (the Newton preconditioner, the flow's
    stability ceiling) are built from it.
    """
    s = derivative_symbol(grid, deriv)
    mesh = np.meshgrid(*([s] * (grid.naxes - 1)), s[: grid.points // 2 + 1],
                       indexing="ij", sparse=True)
    if grid.mode == "invariant":
        return mesh
    n = grid.n
    return [mesh[a] + 1j * mesh[n + a] for a in range(n)]


def _spectral_derivative(values: np.ndarray, axis: int,
                         grid: TorusGrid) -> np.ndarray:
    out = np.fft.ifft(np.fft.fft(values, axis=axis)
                      * grid.spectral_multipliers[axis], axis=axis)
    return out if np.iscomplexobj(values) else out.real.copy()


def _derivative(values: np.ndarray, grid: TorusGrid, axis: int,
                deriv: str) -> np.ndarray:
    # input checked by gradient, once per call; the grid axis is counted
    # from the end, past any stack axes
    axis -= grid.naxes
    if deriv == "fd4":
        return _fd4(values, axis, grid.dx)
    return _spectral_derivative(values, axis, grid)


def gradient(values: np.ndarray, grid: TorusGrid, deriv: str = "fd4") -> list:
    """First derivatives along every grid axis, in derivative mode deriv."""
    if values.shape[-grid.naxes:] != grid.shape:
        raise ShapeError(f"field shape {values.shape} != grid shape {grid.shape}")
    if deriv not in DERIV_MODES:
        raise ShapeError(f"derivative mode must be one of {DERIV_MODES}")
    return [_derivative(values, grid, j, deriv) for j in range(grid.naxes)]


def _hermitian_stack(n: int, lead: tuple, dtype, entry) -> np.ndarray:
    """The (lead..., n, n) stack with entry(a, b) on and above the diagonal,
    row by row: the diagonal keeps its real part and the lower triangle is
    the conjugate of the upper, so the stack is exactly Hermitian."""
    out = np.empty(lead + (n, n), dtype=dtype)
    for a in range(n):
        out[..., a, a] = entry(a, a).real
        for b in range(a + 1, n):
            block = entry(a, b)
            out[..., a, b], out[..., b, a] = block, block.conj()
    return out


def complex_hessian_of(values: np.ndarray, grid: TorusGrid,
                       deriv: str = "fd4") -> np.ndarray:
    """Discrete coefficient matrix of the (1,1)-form i ddbar(phi).

    Entry (a, b) approximates d^2 phi / dz_a dzbar_b.  In invariant mode the
    result is real symmetric; in full mode it is Hermitian, exactly so
    because _hermitian_stack fills it from the upper triangle.  Composed
    first-derivative passes commute across axes, so the symmetric part needs
    no averaging.  Both layouts need a real field.
    """
    if np.iscomplexobj(values):
        raise ShapeError("the complex Hessian takes a real field")
    n, full = grid.n, grid.mode == "full"
    # every second derivative differentiates du[j] along axis k >= j once
    du = gradient(values, grid, deriv)

    def entry(a, b):
        block = _derivative(du[a], grid, b, deriv)
        if full:
            block = block + _derivative(du[n + a], grid, n + b, deriv)
        if full and b > a:
            # the imaginary part of a diagonal entry cancels exactly
            block = block + 1j * (_derivative(du[a], grid, n + b, deriv)
                                  - _derivative(du[b], grid, n + a, deriv))
        return 0.25 * block

    return _hermitian_stack(n, values.shape, complex if full else float, entry)


def null_mode_projection(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Remove the modes invisible to composed first-derivative stencils.

    These are the 2^naxes Fourier bins whose frequency along every axis lies
    in {0, N/2} (the mean among them).  Both derivative modes annihilate
    exactly this set.  The dead bins span exactly the fields that depend
    only on the parity of each grid index, so on an even grid the
    projection subtracts from each parity class its own mean; on an odd
    grid only the mean is dead.  Real and complex fields alike.
    """
    if grid.points % 2:
        return values - values.mean()
    # index i = 2 m + p along each axis; summing out every m leaves the
    # 2^naxes class sums
    half, naxes = grid.points // 2, grid.naxes
    lead = (half, 2) * (naxes - 1)
    sums = values.reshape(lead + (half, 2))
    for axis in range(0, 2 * naxes, 2):
        sums = sums.sum(axis=axis, keepdims=True)
    # the means repeated along the last axis, so the subtraction runs over
    # whole contiguous rows
    means = np.tile(sums.reshape(sums.shape[:-2] + (2,)), half) / half**naxes
    rows = values.reshape(lead + (grid.points,))
    return (rows - means).reshape(values.shape)


def integrate_top(values: np.ndarray, grid: TorusGrid):
    """Integral over the full 2n-torus of a sampled scalar density: a number
    for one field, an array of them for a stack."""
    if values.shape[-grid.naxes:] != grid.shape:
        raise ShapeError(f"field shape {values.shape} != grid shape {grid.shape}")
    total = values.sum(axis=tuple(range(-grid.naxes, 0))) * grid.cell_volume
    if total.ndim:
        return total
    return complex(total) if np.iscomplexobj(values) else float(total)


def save_field(path, grid: TorusGrid, values: np.ndarray,
               meta: dict | None = None) -> None:
    """Write a potential with its grid metadata to a .npz archive."""
    header = dict(grid.describe())
    if meta:
        header.update(meta)
    np.savez(path, values=values, header=json.dumps(header, sort_keys=True))


def load_field(path) -> tuple:
    """Read a potential saved by save_field; returns (grid, values, header
    dict).  The values must be finite reals shaped like the header's grid."""
    with np.load(path, allow_pickle=False) as archive:
        values = np.asarray(archive["values"])
        header = json.loads(str(archive["header"]))
    if values.dtype.kind not in "fiu" or not np.isfinite(values).all():
        raise ValueError("stored values must be finite real numbers")
    grid = TorusGrid(n=int(header["n"]), points=int(header["points"]),
                     mode=str(header["mode"]))
    if values.shape != grid.shape:
        raise ShapeError(f"values shape {values.shape} != grid {grid.shape}")
    return grid, values, header


def _lower_factor(chi: np.ndarray) -> list:
    """Rows of the lower factor L of a Hermitian stack chi = L L^*.

    low[i][j], j <= i, is one array over the stack, so each entry costs one
    array operation for every grid point at once.  Raises SingularFormError
    where a pivot is not > 0, so a NaN pivot fails as a non-positive one.
    """
    n = chi.shape[-1]
    low = [[] for _ in range(n)]
    for j in range(n):
        pivot = chi[..., j, j].real
        for k in range(j):
            pivot = pivot - (low[j][k] * low[j][k].conj()).real
        if not (pivot > 0.0).all():
            raise SingularFormError("metric lost positivity on the grid")
        diag = np.sqrt(pivot)
        low[j].append(diag)
        for i in range(j + 1, n):
            entry = chi[..., i, j]
            for k in range(j):
                entry = entry - low[i][k] * low[j][k].conj()
            low[i].append(entry / diag)
    return low


def _forward(low: list, rhs: np.ndarray) -> list:
    """Rows of L^{-1} R by forward substitution, for R constant lower
    triangular or an n x 1 column of fields; stored as low is."""
    n = len(low)
    out = [[] for _ in range(n)]
    for k in range(rhs.shape[1]):
        for i in range(k, n):
            entry = rhs[i, k]
            for m in range(k, i):
                entry = entry - low[i][m] * out[m][k]
            out[i].append(entry / low[i][i])
    return out


class MetricField:
    """chi = chi0 + i ddbar(phi) sampled on a grid, with its lower factor.

    The metric of the potential phi: hessian is phi's complex Hessian in
    derivative mode deriv, and every functional of phi and the curvature
    read phi and deriv from here.  chi0 is a constant form the caller coerced once with as_matrix, as FlowSetup.chi0
    is; chi is real when the Hessian is and chi0 has no imaginary part.  low
    holds the factor chi = L L^* entry by entry (_lower_factor), and det,
    the traces, the inverse and h all read it.  Construction fails with
    SingularFormError as soon as a pivot is not > 0 somewhere, a NaN
    included, which is the blow-up signal the flow driver listens for.
    """

    __slots__ = ("grid", "chi0", "phi", "hessian", "deriv", "chi", "low",
                 "_det")

    def __init__(self, grid: TorusGrid, chi0: np.ndarray, phi: np.ndarray,
                 hessian: np.ndarray, deriv: str):
        self.grid = grid
        self.chi0 = chi0
        self.phi = phi
        self.deriv = deriv
        n = grid.n
        if chi0.shape != (n, n):
            raise ShapeError(
                f"background form is {chi0.shape}, expected {(n, n)}"
            )
        if hessian.shape[-grid.naxes - 2:] != grid.shape + (n, n):
            raise ShapeError("hessian stack does not match the grid")
        self.hessian = hessian
        if not (np.iscomplexobj(hessian) or chi0.imag.any()):
            chi0 = chi0.real
        self.chi = chi0 + hessian
        self.low = _lower_factor(self.chi)
        self._det = None

    @property
    def n(self) -> int:
        return self.grid.n

    def det(self) -> np.ndarray:
        if self._det is None:
            prod = self.low[0][0]
            for j in range(1, self.n):
                prod = prod * self.low[j][j]
            self._det = prod * prod
        return self._det

    def trace_with(self, factor: np.ndarray) -> np.ndarray:
        """Pointwise chi^{ij} g_{ij} = |L^{-1} F|^2 for g = F F^*, F the lower
        factor form_factor(g) of a constant form or a column f of fields."""
        return sum((x * x.conj()).real
                   for row in _forward(self.low, factor) for x in row)

    def _inverse_entries(self) -> list:
        """Entries (a, b >= a) of chi^{-1} = L^{-*} L^{-1} from the
        triangular inverse, each one array over the grid; None below the
        diagonal, whose entries are the conjugates."""
        n = self.n
        tri = _forward(self.low, np.eye(n))
        return [[sum(tri[k][a].conj() * tri[k][b] for k in range(b, n))
                 if b >= a else None for b in range(n)] for a in range(n)]

    def inverse(self) -> np.ndarray:
        """chi^{-1} as a stack."""
        inv = self._inverse_entries()
        return _hermitian_stack(self.n, self.chi.shape[:-2], self.chi.dtype,
                                lambda a, b: inv[a][b])

    def h_matrix(self, g: np.ndarray) -> np.ndarray:
        """Pointwise chi^{-1} g chi^{-1}, the kernel of the linearized trace.

        g is a constant form the caller coerced once with as_matrix, as
        FlowSetup.omega is; the product is real when chi is real and g has
        no imaginary part.  Built entry by entry as (chi^{-1} g) chi^{-1},
        skipping the zero entries of g, and packed by _hermitian_stack.
        """
        n, up = self.n, self._inverse_entries()
        inv = [[up[a][b] if b >= a else up[b][a].conj() for b in range(n)]
               for a in range(n)]
        if not (np.iscomplexobj(inv[0][0]) or g.imag.any()):
            g = g.real
        left = [[reduce(add, (inv[a][c] * g[c, d]
                              for c in range(n) if g[c, d]))
                 for d in range(n)] for a in range(n)]
        return _hermitian_stack(
            n, self.chi.shape[:-2], np.result_type(self.chi, g),
            lambda a, b: reduce(add, (left[a][d] * inv[d][b]
                                      for d in range(n))))

    def relative_eigenvalues(self, g: np.ndarray) -> np.ndarray:
        """Eigenvalues of chi against g at every grid point, ascending; g is
        coerced once by the caller, as for h_matrix."""
        flat = self.chi.reshape(-1, self.n, self.n)
        lam = pencil_eigenvalues_batch(g, flat)
        return lam.reshape(self.chi.shape[:-1])


def form_factor(g) -> np.ndarray:
    """Lower factor F of a constant positive form g = F F^*, real when g
    has no imaginary part; computed once per form and passed to
    MetricField.trace_with."""
    gm = as_matrix(g)
    if not gm.imag.any():
        gm = gm.real
    low = np.zeros_like(gm)
    for i, row in enumerate(_lower_factor(gm)):
        low[i, : i + 1] = row
    return low


def metric_field(grid: TorusGrid, chi0: np.ndarray, phi: np.ndarray,
                 deriv: str = "fd4") -> MetricField:
    """The MetricField of phi over chi0, a form coerced with as_matrix."""
    return MetricField(grid, chi0, phi, complex_hessian_of(phi, grid, deriv),
                       deriv)


def class_constant_c(omega, chi0) -> float:
    """The constant c with n c = chi0^{ij} omega_{ij} for constant forms.

    On flat tori with translation-invariant background forms the defining
    integral ratio collapses to a single trace, because both integrands are
    constant.
    """
    n = as_matrix(omega).shape[0]
    return trace_pair(chi0, omega) / n


def _hessian_trace(coef: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Pointwise Re sum_ab A_ab H_ba, A a Hermitian constant form or stack,
    H a complex-Hessian stack: the diagonal plus twice the real upper
    triangle, since both are Hermitian with real diagonals."""
    n = hess.shape[-1]
    out = reduce(add, (coef[..., a, a].real * hess[..., a, a].real
                       for a in range(n)))
    if n > 1:
        upper = reduce(add, ((coef[..., a, b] * hess[..., b, a]).real
                             for a in range(n) for b in range(a + 1, n)))
        out = out + 2.0 * upper
    return out


def scalar_curvature(metric: MetricField) -> np.ndarray:
    """R = -chi^{ab} d^2(log det chi)/dz_a dzbar_b on the grid."""
    hess = complex_hessian_of(np.log(metric.det()), metric.grid, metric.deriv)
    return -_hessian_trace(metric.inverse(), hess)
