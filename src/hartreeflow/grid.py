"""Uniform periodic grid with spectral transforms, norms, and snapshots.

The box is [-L/2, L/2)^N with n points per axis and midpoint quadrature:
every integral is cell_volume * sum(samples).  The quadrature-weighted
spectrum of f is

    cell_volume * fftn_grid(grid, f)[k]  =  h^N * sum_j f(x_j) exp(-i k . (x_j - x_0)),

where x_0 = (-L/2, ..., -L/2) is the first grid node, so that the spectral
coefficients approximate the Fourier integral over the box and a product of
two such spectra is the spectrum of the discrete (quadrature-weighted)
convolution.  Parseval reads

    cell_volume * sum |f|^2  =  (1/L^N) * sum_k |cell_volume * fftn_grid(grid, f)[k]|^2.

The one field type is MultiField: m components on one grid, stacked as
data[j, ...].  One profile is a MultiField with m = 1, and
MultiField.components gives each component as such a view.  inner,
grad_norm_sq, h1_norm_sq and lp_norm sum over the components.  The
component masses of a MultiField, or of any stack, are norms_sq(grid, data).

A real array (a density, or a real field of the minimiser) goes through
rfftn_grid / irfftn_grid, whose half spectrum holds the first n // 2 + 1 bins
of the last spatial axis; Grid.half_k_squared is |k|^2 on those bins, and
Grid.half_k_squared_weighted counts each bin as often as it stands in the full
spectrum, so that kinetic sums over the half spectrum equal full ones.
forward_spectrum / inverse_spectrum / spectral_weights are the one place that
picks real or complex transforms, and the |k|^2 and Parseval weights to go
with them, from the dtype of a field stack; spectral_inner takes inner
products and norms of fields from their spectra.

On a 1D grid the four transforms call numpy's 1D entry points, np.fft.fft,
ifft, rfft and irfft, with n = points_per_dim and axis = -1: the calls
numpy's n-D functions make for one axis, so the bits are the same, without
their argument handling, a large share of a 256-point transform.  For N >= 2
they call np.fft.fftn, ifftn, rfftn and irfftn with the grid's fixed shape
and spatial axes; given axes alone, numpy derives the shape through np.take,
a few microseconds per call.

Fields are immutable values for all public operations; transforms allocate
their own scratch per call unless handed out=, so concurrent use only
requires one call per worker at a time.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SizeMismatchError(ValueError):
    """Array shape does not match the grid it is claimed to live on."""


FIELD_MAGIC = b"CHFLD1\0"
_HEADER = struct.Struct("<IIId")  # N, m, n, L after the magic


@dataclass(frozen=True)
class Grid:
    space_dim: int
    points_per_dim: int
    box_length: float

    def __post_init__(self):
        for name in ("space_dim", "points_per_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.space_dim < 1:
            raise ValueError("space_dim must be >= 1")
        if self.points_per_dim < 8 or self.points_per_dim % 2:
            raise ValueError("points_per_dim must be even and >= 8")
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be finite and positive, got {self.box_length}")

    @cached_property
    def spacing(self) -> float:
        return self.box_length / self.points_per_dim

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_dim,) * self.space_dim

    @cached_property
    def total_points(self) -> int:
        return self.points_per_dim**self.space_dim

    @cached_property
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

    @cached_property
    def half_k_squared(self) -> np.ndarray:
        """|k|^2 on the half spectrum of rfftn_grid: the first n // 2 + 1 bins of the last axis."""
        return np.ascontiguousarray(self.k_squared[..., : self.points_per_dim // 2 + 1])

    @cached_property
    def half_weight(self) -> np.ndarray:
        """How often each bin of the half spectrum stands in the full spectrum.

        1 for bin 0 and the Nyquist bin of the last axis, 2 for the rest (the
        bin and its mirror k -> -k), so for a real f, sum(half_weight *
        |rfftn_grid(f)|^2) is sum(|fftn_grid(f)|^2).  Shape (n // 2 + 1,).
        """
        weight = np.full(self.points_per_dim // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        return weight

    @cached_property
    def half_pair_weight(self) -> np.ndarray:
        """half_weight for each float of the half spectrum viewed as (re, im) pairs."""
        return np.repeat(self.half_weight, 2)

    @cached_property
    def half_k_squared_weighted(self) -> np.ndarray:
        """half_k_squared * half_weight: sum(half_k_squared_weighted *
        |rfftn_grid(f)|^2) is sum(k_squared * |fftn_grid(f)|^2) for a real f."""
        return self.half_weight * self.half_k_squared

    @property
    def max_k_squared(self) -> float:
        return self.space_dim * (np.pi / self.spacing) ** 2

    @cached_property
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
class MultiField:
    """m component fields on one shared grid, stacked as data[j, ...]."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != self.grid.space_dim + 1 or arr.shape[1:] != self.grid.shape:
            raise SizeMismatchError(f"multifield shape {arr.shape} incompatible with grid {self.grid.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def components(self) -> tuple[MultiField, ...]:
        """Each component as a one-component MultiField, a view of data."""
        return tuple(MultiField(self.grid, self.data[j : j + 1]) for j in range(self.m))


def Field(grid: Grid, data) -> MultiField:
    """The one-component MultiField of data, shape grid.shape; kept for the
    benchmark's micro timings until they build a MultiField (ROADMAP item 7)."""
    return MultiField(grid, np.asarray(data)[None])


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


def abs_sq(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise; a real array skips the zero imaginary part, with the same bits."""
    if np.iscomplexobj(x):
        return x.real**2 + x.imag**2
    return x**2


def norms_sq(grid: Grid, x: np.ndarray) -> np.ndarray:
    """cell_volume * sum |x|^2 over the spatial axes: the component masses of a stack."""
    return grid.cell_volume * abs_sq(x).sum(axis=grid.spatial_axes)


def real_inner(a: np.ndarray, b: np.ndarray, axis=None):
    """sum Re(conj(a) b) over axis; a real pair skips the conjugate and the zero imaginary part."""
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return (np.conj(a) * b).real.sum(axis=axis)
    return (a * b).sum(axis=axis)


def per_component(grid: Grid, values) -> np.ndarray:
    """Values indexed (..., m), shaped to broadcast over the spatial axes of a stack."""
    return np.asarray(values)[(...,) + (None,) * grid.space_dim]


def scalar_or_array(values: np.ndarray):
    """A Python float for a reduction with no leading axes left, else the array."""
    return float(values) if np.ndim(values) == 0 else values


# -- transforms ---------------------------------------------------------------


def fftn_grid(grid: Grid, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Raw FFT over the trailing spatial axes (batched over leading axes); out may be arr."""
    if grid.space_dim == 1:
        return np.fft.fft(arr, n=grid.points_per_dim, axis=-1, out=out)
    return np.fft.fftn(arr, s=grid.shape, axes=grid.spatial_axes, out=out)


def ifftn_grid(grid: Grid, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if grid.space_dim == 1:
        return np.fft.ifft(arr, n=grid.points_per_dim, axis=-1, out=out)
    return np.fft.ifftn(arr, s=grid.shape, axes=grid.spatial_axes, out=out)


def rfftn_grid(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """FFT of a real array over the trailing spatial axes.

    The half spectrum lies along the last axis: n // 2 + 1 bins, the same
    bins as the first n // 2 + 1 of fftn_grid.
    """
    if grid.space_dim == 1:
        return np.fft.rfft(arr, n=grid.points_per_dim, axis=-1)
    return np.fft.rfftn(arr, s=grid.shape, axes=grid.spatial_axes)


def irfftn_grid(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """Real inverse of a half spectrum from rfftn_grid, of grid shape on the trailing axes."""
    if grid.space_dim == 1:
        return np.fft.irfft(arr, n=grid.points_per_dim, axis=-1)
    return np.fft.irfftn(arr, s=grid.shape, axes=grid.spatial_axes)


def spectral_weights(grid: Grid, dtype):
    """(k2, k2_weighted, pair_weight) for the spectrum forward_spectrum gives a stack of dtype.

    A complex stack has the full spectrum: k2 and k2_weighted are k_squared
    and pair_weight is 1.  A real one has the half spectrum: half_k_squared,
    half_k_squared_weighted and half_weight repeated for the (re, im) floats
    of each bin, the weight spectral_inner takes.
    """
    if np.issubdtype(dtype, np.complexfloating):
        return grid.k_squared, grid.k_squared, 1.0
    return grid.half_k_squared, grid.half_k_squared_weighted, grid.half_pair_weight


def forward_spectrum(grid: Grid, x: np.ndarray) -> np.ndarray:
    """The spectrum of x: fftn_grid for a complex x, rfftn_grid (the half spectrum) for a real one.

    spectral_weights(grid, x.dtype) gives the |k|^2 and Parseval weights
    that go with it; pair with inverse_spectrum(grid, ..., x.dtype).
    """
    return fftn_grid(grid, x) if np.iscomplexobj(x) else rfftn_grid(grid, x)


def inverse_spectrum(grid: Grid, xhat: np.ndarray, dtype) -> np.ndarray:
    """Inverse of forward_spectrum(): back to a real array when dtype is real, else a complex one."""
    if np.issubdtype(dtype, np.complexfloating):
        return ifftn_grid(grid, xhat)
    return irfftn_grid(grid, xhat)


def spectral_inner(grid: Grid, ahat: np.ndarray, bhat: np.ndarray, pair_weight) -> np.ndarray:
    """cell_volume * sum Re(conj(a) b) over space for the stacks whose spectra are ahat and bhat.

    Parseval over the spectra viewed as (re, im) float pairs, weighted by
    the pair_weight of spectral_weights; spectral_inner(grid, xhat, xhat, w)
    is norms_sq of x.  The spectra need a contiguous last axis.
    """
    products = ahat.view(np.float64) * bhat.view(np.float64)
    products *= pair_weight
    return grid.spectral_weight * products.sum(axis=grid.spatial_axes)


# -- norms and inner products --------------------------------------------------


def inner(f: MultiField, g: MultiField) -> complex:
    """L^2 inner product summed over the components, conjugate-linear in the first argument."""
    if f.grid != g.grid:
        raise SizeMismatchError("fields live on different grids")
    return complex(f.grid.cell_volume * np.vdot(f.data, g.data))


def grad_norm_sq(mf: MultiField) -> float:
    """Squared L^2 norm of the gradient, computed spectrally."""
    g = mf.grid
    fh = fftn_grid(g, mf.data)
    return float(g.spectral_weight * np.sum(g.k_squared * abs_sq(fh)))


def h1_norm_sq(mf: MultiField) -> float:
    return float(np.sum(norms_sq(mf.grid, mf.data))) + grad_norm_sq(mf)


def lp_norm(mf: MultiField, s: float) -> float:
    """L^s norm under midpoint quadrature, s >= 1."""
    if not (math.isfinite(s) and s >= 1):
        raise ValueError(f"lp_norm requires a finite exponent s >= 1, got {s}")
    g = mf.grid
    return float((g.cell_volume * np.sum(np.abs(mf.data) ** s)) ** (1.0 / s))


# -- snapshots ----------------------------------------------------------------


def write_snapshot(path, mf: MultiField) -> None:
    """Write the bit-exact field snapshot.

    Layout: magic "CHFLD1\\0", then little-endian u32 N, u32 m, u32 n, f64 L,
    then m * n^N (re, im) f64 pairs in axis-major order.
    """
    g = mf.grid
    header = FIELD_MAGIC + _HEADER.pack(g.space_dim, mf.m, g.points_per_dim, g.box_length)
    flat = np.ascontiguousarray(mf.data).reshape(mf.m * g.total_points)
    payload = np.empty(2 * flat.size, dtype="<f8")
    payload[0::2] = flat.real
    payload[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_snapshot(path) -> MultiField:
    """The MultiField of a write_snapshot file.

    The header must describe a valid grid, at least one component and a
    payload of exactly the bytes that follow it, else ValueError; the sizes
    are compared before any payload is read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(FIELD_MAGIC))
        if magic != FIELD_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("snapshot header truncated")
        n_dim, m, n, box_length = _HEADER.unpack(header)
        grid = Grid(space_dim=n_dim, points_per_dim=n, box_length=box_length)
        if m < 1:
            raise ValueError(f"snapshot component count m must be at least 1, got {m}")
        size = 16 * m * grid.total_points
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != size:
            problem = "truncated" if left < size else "followed by extra bytes"
            raise ValueError(
                f"snapshot payload {problem}: N={n_dim}, m={m}, n={n} give {size} bytes, the file holds {left}"
            )
        raw = fh.read(size)
    payload = np.frombuffer(raw, dtype="<f8")
    data = (payload[0::2] + 1j * payload[1::2]).reshape((m,) + grid.shape)
    return MultiField(grid, data)
