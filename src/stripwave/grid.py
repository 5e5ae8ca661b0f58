"""Discretization of the truncated strip [-L_z, L_z] x [0, lam].

The z-axis is a uniform finite-difference axis including both endpoints;
the y-axis is periodic and differentiated spectrally (exact for resolved
Fourier modes).  The one-sided exponential weight w(z) = 1 + e^{s z} and
the trapezoid weights in z are sampled once at construction; the energy
ledger's quadrature (energy) contracts with them.  No Laplacian is formed
here: the time loops' diffusion acts on y-modes, as the 3-point stencil
with Dirichlet pins of evolve._ModeDiffusionSolver, and d2dz2_array serves
the wave's identity checks.

Grids and fields are immutable value snapshots with read-only arrays, so
instances can be shared freely across threads.  Every operator allocates a
fresh output array, except that ddz_array, y_modes, y_values and
y_fluctuation_values also take out=, an array of the result's shape and
dtype that they fill and return instead: the stepper reuses its own buffers
that way, with the same arithmetic bit for bit.

The y-transforms (y_modes, y_values, y_fluctuation_values), and through
them every y-derivative and y-antiderivative of the package, are products
with a real DFT matrix, built once per n_y, whose (Re, Im) parts of each
rfft bin sit in adjacent columns: one BLAS call per array instead of
numpy.fft's per-row FFTs.  The cost is O(n_y^2) per z-row against
O(n_y log n_y), a win for the few y-modes a thin strip needs (a forward and
inverse pair at n_z = 1024: about 2.9x faster at n_y = 16, on par near 64,
1.8x slower at 128).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import check_rules


class GridError(ValueError):
    """Invalid grid construction arguments."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on the truncated strip, with read-only arrays derived
    once, at construction:

    z nodes: z_i = -L_z + i*dz, i = 0..n_z-1, dz = 2*L_z/(n_z-1)
    y nodes: y_j = j*dy,        j = 0..n_y-1, dy = lam/n_y (no repeated endpoint)
    weight : w(z_i) = 1 + e^{s z_i}, exact at every node
    wavenumbers_y: angular wavenumbers 2*pi*m/lam of the rfft bins m = 0..n_y/2
    ddy_wavenumbers: the same with the Nyquist bin zeroed; 1j times this is
        the symbol of the collocation d/dy (see ddy_array)
    rfft_multiplicity: how often each bin occurs in the full spectrum: once
        for bins 0 and Nyquist, twice (with its conjugate) otherwise
    trapz_weights: trapezoid quadrature weights in z: dz inside, dz/2 at the ends
    """

    L_z: float
    n_z: int
    lam: float
    n_y: int
    s: float
    z: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)
    weight: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers_y: np.ndarray = field(init=False, repr=False, compare=False)
    ddy_wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    rfft_multiplicity: np.ndarray = field(init=False, repr=False, compare=False)
    trapz_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_rules("grid", {"L_z": self.L_z, "n_z": self.n_z, "lambda": self.lam,
                             "n_y": self.n_y}, error=GridError)
        z = np.linspace(-self.L_z, self.L_z, self.n_z)
        k = 2.0 * np.pi * np.fft.rfftfreq(self.n_y, d=self.dy)
        mult = np.full(self.n_y // 2 + 1, 2.0)
        mult[0] = mult[-1] = 1.0
        wz = np.full(self.n_z, self.dz)
        wz[0] = wz[-1] = 0.5 * self.dz
        for name, a in dict(z=z, y=np.arange(self.n_y) * (self.lam / self.n_y),
                            weight=1.0 + np.exp(self.s * z), wavenumbers_y=k,
                            ddy_wavenumbers=np.append(k[:-1], 0.0),
                            rfft_multiplicity=mult, trapz_weights=wz).items():
            object.__setattr__(self, name, _frozen(a))

    @property
    def dz(self) -> float:
        return 2.0 * self.L_z / (self.n_z - 1)

    @property
    def dy(self) -> float:
        return self.lam / self.n_y


def make_grid(L_z: float, n_z: int, lam: float, n_y: int, s: float) -> Grid:
    """Build the strip grid; rejects odd n_y, non-positive sizes and a strip
    wider than 2 (the rules of config._RULES)."""
    return Grid(L_z=float(L_z), n_z=int(n_z), lam=float(lam), n_y=int(n_y), s=float(s))


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function sampled on the grid, shape (n_z, n_y)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_z, self.grid.n_y):
            raise GridError(
                f"field shape {v.shape} does not match grid ({self.grid.n_z}, {self.grid.n_y})")
        object.__setattr__(self, "values", _frozen(v))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class VectorField:
    """Two-component field (z-component, y-component) on one shared grid."""

    z: ScalarField
    y: ScalarField

    def __post_init__(self):
        if self.z.grid != self.y.grid:
            raise GridError("vector field components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.z.grid

    def max_abs(self) -> float:
        return max(self.z.max_abs(), self.y.max_abs())


def field_from_function(grid: Grid, fn) -> ScalarField:
    """Sample fn(z, y) on the tensor grid (z broadcast along rows)."""
    Z, Y = np.meshgrid(grid.z, grid.y, indexing="ij")
    return ScalarField(grid, fn(Z, Y))


# ---------------------------------------------------------------------------
# z-derivatives: 2nd-order central interior, 2nd-order one-sided at the ends.
# Exact for polynomials of degree <= 2, including the boundary stencils.
# ---------------------------------------------------------------------------

def ddz_array(v: np.ndarray, dz: float, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        out = np.empty_like(v)
    if np.iscomplexobj(v):  # y-modes: difference both parts in real arithmetic
        parts = np.ascontiguousarray(v).reshape(len(v), -1).view(v.real.dtype)
        ddz_array(parts, dz, out.reshape(len(v), -1).view(parts.dtype))
        return out
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dz
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dz)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dz)
    return out


def d2dz2_array(v: np.ndarray, dz: float) -> np.ndarray:
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dz**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dz**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dz**2
    return out


# ---------------------------------------------------------------------------
# y: periodic, transformed by rfft and differentiated spectrally.
# ---------------------------------------------------------------------------

@functools.cache
def _dft_matrices(n_y: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only real DFT matrices of y_modes and y_values on n_y nodes.

    forward (n_y, 2 m) and inverse (2 m, n_y), m = n_y // 2 + 1 bins, hold
    the real and the imaginary part of each bin in adjacent columns (rows):
    forward[:, 2k : 2k + 2] = (cos, -sin)(2 pi j k / n_y) / n_y and
    inverse[2k : 2k + 2] = c_k (cos, -sin)(2 pi j k / n_y), c_k the bin's
    multiplicity (Grid.rfft_multiplicity).  The imaginary parts of bin 0 and
    of the Nyquist bin are exact zeros in both, so y_modes gives them as 0
    and y_values ignores them, as rfft and irfft do.
    """
    k = np.arange(n_y // 2 + 1)
    angle = 2.0 * np.pi * (np.outer(np.arange(n_y), k) % n_y) / n_y
    real_bin = (k == 0) | (2 * k == n_y)
    forward = np.empty((n_y, 2 * len(k)))
    forward[:, 0::2] = np.cos(angle) / n_y
    forward[:, 1::2] = np.where(real_bin, 0.0, -np.sin(angle) / n_y)
    mult = np.where(real_bin, 1.0, 2.0)[:, None]
    inverse = np.empty((2 * len(k), n_y))
    inverse[0::2] = mult * np.cos(angle.T)
    inverse[1::2] = np.where(real_bin[:, None], 0.0, -mult * np.sin(angle.T))
    return _frozen(forward), _frozen(inverse)


def _parts(vh: np.ndarray) -> np.ndarray:
    """The float (Re, Im) pairs of y-modes along the last axis, a view when
    that axis is contiguous."""
    vh = np.asarray(vh, dtype=complex)
    if vh.strides[-1] != vh.itemsize:
        vh = np.ascontiguousarray(vh)
    return vh.view(float)


def _dft(parts: np.ndarray, matrix: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # A non-finite entry meets the exact zeros of the matrix (inf * 0 =
    # nan); the stepper's finiteness check, not a warning, reports it.
    with np.errstate(invalid="ignore", over="ignore"):
        return np.matmul(parts, matrix, out=out)


def y_modes(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rfft y-modes along the last axis, scaled so that the k = 0 column is
    the y-mean; z stays the leading axis."""
    n_y = v.shape[-1]
    if out is None:
        out = np.empty(v.shape[:-1] + (n_y // 2 + 1,), dtype=complex)
    _dft(v, _dft_matrices(n_y)[0], out.view(float))
    return out


def y_values(vh: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of y_modes: samples on the y-nodes."""
    return _dft(_parts(vh), _dft_matrices(grid.n_y)[1], out)


def y_fluctuation_values(vh: np.ndarray, grid: Grid,
                         out: np.ndarray | None = None) -> np.ndarray:
    """y_values of the modes vh with their k = 0 column (the y-mean) taken
    as zero: the inverse matrix without its bin-0 rows, applied to a view
    of vh, which is left as it is."""
    return _dft(_parts(vh)[..., 2:], _dft_matrices(grid.n_y)[1][2:], out)


def ddy_array(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d/dy along axis 1.

    The Nyquist bin is zeroed: the mode cos(pi*n_y*y/lam) alternates in sign
    on the collocation nodes and its pointwise derivative samples to zero, so
    zeroing is the exact collocation derivative of that mode.
    """
    return y_values(1j * grid.ddy_wavenumbers * y_modes(v), grid)


def write_csv(path, header, rows) -> None:
    """A numeric table: the comma-joined names of header, then one line per
    row of numbers written to 17 significant digits (every double round-trips)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def field_to_csv(f: ScalarField, path) -> None:
    """Snapshot format: header z,y,value; row-major over (z_i, y_j)."""
    g = f.grid
    write_csv(path, ("z", "y", "value"),
              ((zi, yj, v) for zi, row in zip(g.z, f.values) for yj, v in zip(g.y, row)))
