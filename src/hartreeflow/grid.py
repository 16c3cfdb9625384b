"""Uniform periodic grid with spectral transforms, norms, and dilation.

The box is [-L/2, L/2)^N with n points per axis and midpoint quadrature:
every integral is cell_volume * sum(samples).  Transforms use the convention

    transform(f)[k]  =  h^N * sum_j f(x_j) exp(-i k . (x_j - x_0)),

where x_0 = (-L/2, ..., -L/2) is the first grid node, so that the spectral
coefficients approximate the Fourier integral over the box and a product of
two transforms is the transform of the discrete (quadrature-weighted)
convolution.  Under this convention Parseval reads

    cell_volume * sum |f|^2  =  (1/L^N) * sum_k |transform(f)[k]|^2.

Fields are immutable values for all public operations; transforms allocate
their own scratch per call, so concurrent use only requires one call per
worker at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SizeMismatchError(ValueError):
    """Array shape does not match the grid it is claimed to live on."""


FIELD_MAGIC = b"CHFLD1\0"


@dataclass(frozen=True)
class Grid:
    space_dim: int
    points_per_dim: int
    box_length: float

    def __post_init__(self):
        if self.space_dim < 1:
            raise ValueError("space_dim must be >= 1")
        if self.points_per_dim < 8 or self.points_per_dim % 2:
            raise ValueError("points_per_dim must be even and >= 8")
        if self.box_length <= 0:
            raise ValueError("box_length must be positive")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.space_dim

    @property
    def total_points(self) -> int:
        return self.points_per_dim**self.space_dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.space_dim

    @cached_property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(-self.space_dim, 0))

    @cached_property
    def field_axes(self) -> tuple[int, ...]:
        """The component axis and the spatial axes of a stack."""
        return tuple(range(-1 - self.space_dim, 0))

    @cached_property
    def axis_coords(self) -> np.ndarray:
        """Per-axis sample coordinates, x_j = -L/2 + j h."""
        n = self.points_per_dim
        return -0.5 * self.box_length + self.spacing * np.arange(n)

    @cached_property
    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Full meshgrid of coordinates, one array of grid shape per axis."""
        return tuple(np.meshgrid(*([self.axis_coords] * self.space_dim), indexing="ij"))

    @cached_property
    def radius(self) -> np.ndarray:
        """Periodic distance to the origin (coords already fold into [-L/2, L/2))."""
        rsq = np.zeros(self.shape)
        for c in self.coordinate_arrays:
            rsq += c * c
        return np.sqrt(rsq)

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        """Signed per-axis wavenumbers 2*pi*m/L in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_dim, d=self.spacing)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full spectral grid."""
        k2 = np.zeros(self.shape)
        for mesh in np.meshgrid(*([self.axis_wavenumbers] * self.space_dim), indexing="ij"):
            k2 += mesh * mesh
        return k2

    @property
    def max_k_squared(self) -> float:
        return self.space_dim * (np.pi / self.spacing) ** 2

    @property
    def spectral_weight(self) -> float:
        """Weight turning sum_k |FFT(f)|^2 into the L^2 mass."""
        return self.cell_volume / self.total_points


def grid_for(params) -> Grid:
    """Grid matching a SystemParams-like object."""
    return Grid(
        space_dim=params.space_dim,
        points_per_dim=params.points_per_dim,
        box_length=params.box_length,
    )


@dataclass(frozen=True, eq=False)
class Field:
    """One complex-valued function sampled on the grid, axis-major (C) order."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise SizeMismatchError(f"field shape {arr.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "data", arr)

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy())


@dataclass(frozen=True, eq=False)
class MultiField:
    """m component fields on one shared grid, stacked as data[j, ...]."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != self.grid.space_dim + 1 or arr.shape[1:] != self.grid.shape:
            raise SizeMismatchError(f"multifield shape {arr.shape} incompatible with grid {self.grid.shape}")
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_fields(cls, fields) -> "MultiField":
        fields = tuple(fields)
        g = fields[0].grid
        if any(f.grid != g for f in fields):
            raise SizeMismatchError("all components must share one grid")
        return cls(g, np.stack([f.data for f in fields]))

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def components(self) -> tuple[Field, ...]:
        return tuple(Field(self.grid, self.data[j]) for j in range(self.m))

    def copy(self) -> "MultiField":
        return MultiField(self.grid, self.data.copy())


# -- stacks -------------------------------------------------------------------
# A stack (..., m, *shape) holds fields of m components: space on the trailing
# space_dim axes, components on axis -1 - space_dim, members on the leading axes.


def stack_of(grid: Grid, fields) -> np.ndarray:
    """The data of a MultiField on grid, or a (..., m, *grid.shape) array checked against it."""
    if isinstance(fields, MultiField):
        if fields.grid != grid:
            raise SizeMismatchError("fields live on a different grid")
        return fields.data
    arr = np.asarray(fields)
    if arr.ndim <= grid.space_dim or arr.shape[-grid.space_dim :] != grid.shape:
        raise SizeMismatchError(f"stack shape {arr.shape} incompatible with grid {grid.shape}")
    return arr


def norms_sq(grid: Grid, x: np.ndarray) -> np.ndarray:
    """cell_volume * sum |x|^2 over the spatial axes: the component masses of a stack."""
    return grid.cell_volume * np.sum(x.real**2 + x.imag**2, axis=grid.spatial_axes)


def per_component(grid: Grid, values) -> np.ndarray:
    """Values indexed (..., m), shaped to broadcast over the spatial axes of a stack."""
    return np.asarray(values)[(...,) + (None,) * grid.space_dim]


def scalar_or_array(values: np.ndarray):
    """A Python float for a reduction with no leading axes left, else the array."""
    return float(values) if np.ndim(values) == 0 else values


# -- transforms ---------------------------------------------------------------


def _spatial(grid: Grid, arr: np.ndarray) -> dict:
    """Transform arguments for the trailing spatial axes.

    The shape is passed along with the axes: given axes alone, numpy.fft
    derives it through np.take, which costs a few microseconds per call, a
    large share of a 256-point transform.
    """
    nd = grid.space_dim
    return {"s": arr.shape[-nd:], "axes": tuple(range(arr.ndim - nd, arr.ndim))}


def fftn_grid(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """Raw FFT over the trailing spatial axes (batched over leading axes)."""
    return np.fft.fftn(arr, **_spatial(grid, arr))


def ifftn_grid(grid: Grid, arr: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(arr, **_spatial(grid, arr))


def transform(field: Field) -> np.ndarray:
    """Quadrature-weighted spectrum, h^N * FFT(f)."""
    return field.grid.cell_volume * fftn_grid(field.grid, field.data)


def inverse_transform(grid: Grid, spectrum: np.ndarray) -> Field:
    spectrum = np.asarray(spectrum)
    if spectrum.shape != grid.shape:
        raise SizeMismatchError(f"spectrum shape {spectrum.shape} != grid shape {grid.shape}")
    return Field(grid, ifftn_grid(grid, spectrum) / grid.cell_volume)


# -- norms and inner products --------------------------------------------------


def inner(f: Field, g: Field) -> complex:
    """L^2 inner product, conjugate-linear in the first argument."""
    if f.grid != g.grid:
        raise SizeMismatchError("fields live on different grids")
    return complex(f.grid.cell_volume * np.vdot(f.data, g.data))


def mass(field: Field) -> float:
    """Squared L^2 norm, cell_volume * sum |f|^2."""
    return float(norms_sq(field.grid, field.data))


def multifield_masses(mf: MultiField) -> np.ndarray:
    return norms_sq(mf.grid, mf.data)


def grad_norm_sq(field: Field) -> float:
    """Squared L^2 norm of the gradient, computed spectrally."""
    g = field.grid
    fh = fftn_grid(g, field.data)
    return float(g.spectral_weight * np.sum(g.k_squared * (fh.real**2 + fh.imag**2)))


def h1_norm_sq(field: Field) -> float:
    return mass(field) + grad_norm_sq(field)


def lp_norm(field: Field, s: float) -> float:
    """L^s norm under midpoint quadrature, s >= 1."""
    if s < 1:
        raise ValueError(f"lp_norm requires s >= 1, got {s}")
    g = field.grid
    return float((g.cell_volume * np.sum(np.abs(field.data) ** s)) ** (1.0 / s))


# -- dilation -----------------------------------------------------------------


def _dilation_matrix(grid: Grid, theta: float) -> np.ndarray:
    """Per-axis matrix evaluating the trig interpolant at the points theta*x_j.

    Entry [a, b] is exp(i k_b (theta*x_a - x_0)) / n, with the Nyquist column
    replaced by the cosine so real inputs stay real.  Points theta*x_a outside
    the box wrap periodically; callers must keep the dilated support inside.
    """
    n = grid.points_per_dim
    k = grid.axis_wavenumbers
    x0 = grid.axis_coords[0]
    y = theta * grid.axis_coords
    phase = np.outer(y - x0, k)
    mat = np.exp(1j * phase) / n
    mat[:, n // 2] = np.cos(phase[:, n // 2]) / n
    return mat


def dilate(field: Field, theta: float) -> Field:
    """Mass-critical rescaling u_theta(x) = theta^(N/2) u(theta x).

    Uses spectral interpolation of the samples, so the result of dilating a
    smooth well-resolved field is itself smooth; the L^2 mass is preserved up
    to the (spectrally small) interpolation and wrap-around error.
    """
    if theta <= 0:
        raise ValueError(f"dilation factor must be positive, got {theta}")
    g = field.grid
    if theta == 1.0:
        return field.copy()
    mat = _dilation_matrix(g, theta)
    out = fftn_grid(g, field.data)
    for ax in range(g.space_dim):
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, ax, 0), axes=(1, 0)), 0, ax)
    return Field(g, theta ** (g.space_dim / 2.0) * out)


def fractional_shift(field: Field, deltas) -> Field:
    """Shift by arbitrary offsets via spectral phases; result(x) = f(x - delta)."""
    g = field.grid
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if deltas.shape != (g.space_dim,):
        raise SizeMismatchError(f"expected {g.space_dim} offsets, got {deltas.shape}")
    fh = fftn_grid(g, field.data)
    n = g.points_per_dim
    k = g.axis_wavenumbers
    for ax, delta in enumerate(deltas):
        phase = np.exp(-1j * k * delta)
        phase[n // 2] = np.cos(k[n // 2] * delta)
        shape = [1] * g.space_dim
        shape[ax] = n
        fh = fh * phase.reshape(shape)
    return Field(g, ifftn_grid(g, fh))


# -- snapshots ----------------------------------------------------------------


def write_snapshot(path, mf: MultiField) -> None:
    """Write the bit-exact field snapshot.

    Layout: magic "CHFLD1\\0", then little-endian u32 N, u32 m, u32 n, f64 L,
    then m * n^N (re, im) f64 pairs in axis-major order.
    """
    g = mf.grid
    header = FIELD_MAGIC + struct.pack("<IIId", g.space_dim, mf.m, g.points_per_dim, g.box_length)
    flat = np.ascontiguousarray(mf.data).reshape(mf.m * g.total_points)
    payload = np.empty(2 * flat.size, dtype="<f8")
    payload[0::2] = flat.real
    payload[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_snapshot(path) -> MultiField:
    with open(path, "rb") as fh:
        magic = fh.read(len(FIELD_MAGIC))
        if magic != FIELD_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        n_dim, m, n, box_length = struct.unpack("<IIId", fh.read(20))
        grid = Grid(space_dim=n_dim, points_per_dim=n, box_length=box_length)
        count = 2 * m * grid.total_points
        payload = np.frombuffer(fh.read(8 * count), dtype="<f8")
    if payload.size != count:
        raise ValueError("snapshot payload truncated")
    data = (payload[0::2] + 1j * payload[1::2]).reshape((m,) + grid.shape)
    return MultiField(grid, data)
