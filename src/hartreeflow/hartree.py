"""Energy functionals of the coupled Hartree system.

The total energy of an m-tuple (phi_1, ..., phi_m) is

    I(phi) = 1/2 sum_j ||grad phi_j||^2
             - 1/(2p) sum_{k,j} int (W * |phi_k|^p) |phi_j|^p dx,

with W * rho the convolution against the attractive kernel.  The pair term

    F_q(f, g) = (1/q) iint W(x - y) |f(x)|^p |g(y)|^p dx dy

carries the bookkeeping prefactor 1/q; with it, the single-component energy is
E(h) = 1/2 ||grad h||^2 - F_{2p}(h, h), an m=2 energy is
E(u1) + E(u2) - F_p(u1, u2), and so on with one F_p cross term per pair.

The kernel is periodised by real-space truncation at radius L/2 with the
singular origin cell replaced by its cell average, and transformed
numerically; the interaction then costs one convolution of the total density
sum_j |phi_j|^p (total_density).  _convolve_array is the one
density->potential convolution; the energy, the propagator, pair_interaction
and convolve_density all call it.  The density is real, so it takes real
transforms and multiplies the half spectrum by Kernel.half_multiplier, the
symbol on the first n // 2 + 1 bins of the last axis, built once per kernel.
_EnergyState is the one implementation of the energy and its L^2 gradient:
total_energy, energy_gradient, el_residual, the minimiser and its
extract_multipliers all evaluate it; the energy of one profile is
total_energy of a one-component MultiField.  The gradient is formed as a
spectrum, k^2 xhat - F(V phi) (gradient_spectrum), with Re<grad_j, phi_j> =
2 kinetic_j - Re<V phi_j, phi_j> beside it, so the minimiser needs no
inverse transform of it; energy_gradient is its inverse transform.  An
evaluation that is handed the spectrum of its fields (a minimiser trial)
makes only the density convolution.  The dtype of the stack picks its field
transforms, through grid.spectral_weights, forward_spectrum and
inverse_spectrum: a complex stack (every MultiField, every evolution) takes
complex transforms, a real one (the minimiser's real starts) real
transforms on the half spectrum.  It reads the stack layout of the grid
module, (..., m, *grid.shape): total_energy of a MultiField gives Python
floats, of a stack arrays over its leading axes, each member the same bits
as alone.  pair_interaction pairs the total densities of two MultiFields
(|f|^p above is sum_j |f_j|^p), and convolve_density convolves each
component of one.  Energies and gradients are pure functions of (fields,
kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    MultiField,
    SizeMismatchError,
    abs_sq,
    fftn_grid,
    forward_spectrum,
    inverse_spectrum,
    irfftn_grid,
    norms_sq,
    per_component,
    real_inner,
    rfftn_grid,
    scalar_or_array,
    spectral_weights,
    stack_of,
)


class SingularKernelError(ValueError):
    """Kernel exponent too large for the origin cell to carry a finite average."""


@dataclass(frozen=True, eq=False)
class Kernel:
    """Interaction potential as real-space samples plus its spectral symbol.

    half_multiplier is the symbol on the half spectrum of rfftn_grid,
    multiplier[..., : n // 2 + 1], kept contiguous.
    """

    grid: Grid
    real_samples: np.ndarray
    multiplier: np.ndarray
    half_multiplier: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        half = np.ascontiguousarray(self.multiplier[..., : self.grid.points_per_dim // 2 + 1])
        object.__setattr__(self, "half_multiplier", half)

    @classmethod
    def from_samples(cls, grid: Grid, samples: np.ndarray) -> "Kernel":
        samples = np.asarray(samples, dtype=float)
        if samples.shape != grid.shape:
            raise SizeMismatchError(f"kernel shape {samples.shape} != grid shape {grid.shape}")
        if np.any(samples < 0):
            raise ValueError("kernel samples must be nonnegative")
        for ax in range(grid.space_dim):
            mirrored = np.roll(np.flip(samples, axis=ax), 1, axis=ax)
            if not np.allclose(samples, mirrored, rtol=0, atol=1e-12 * max(samples.max(), 1.0)):
                raise ValueError("kernel samples must be even under x -> -x")
        # The symbol is the transform taken about x = 0: samples are stored in
        # coordinate (axis-major) order, so re-index by displacement first.
        mult = grid.cell_volume * fftn_grid(grid, np.fft.ifftshift(samples).astype(complex))
        scale = max(float(np.abs(mult.real).max()), 1e-300)
        if float(np.abs(mult.imag).max()) > 1e-10 * scale:
            raise ValueError("kernel symbol has a non-negligible imaginary part")
        return cls(grid=grid, real_samples=samples, multiplier=np.ascontiguousarray(mult.real))

    @classmethod
    def zero(cls, grid: Grid) -> "Kernel":
        """Interaction-free kernel, useful as a counterfactual."""
        z = np.zeros(grid.shape)
        return cls(grid=grid, real_samples=z, multiplier=z.copy())


def _origin_cell_average(n_dim: int, alpha: float, spacing: float) -> float:
    """Average of |x|^(-alpha) over one grid cell centred at the origin.

    In 1D the integral is elementary.  In higher dimensions the cell average
    over the unit cube is computed by midpoint subcells, with the singular
    centre subcell handled exactly through the self-similarity
    avg over (1/K)-cube = K^alpha * avg over unit cube.
    """
    if alpha >= n_dim:
        raise SingularKernelError(
            f"|x|^(-alpha) with alpha={alpha} is not integrable at the origin for N={n_dim}"
        )
    if n_dim == 1:
        # (1/h) int_{-h/2}^{h/2} |x|^(-alpha) dx = (h/2)^(-alpha) / (1 - alpha)
        unit_avg = (0.5 ** (-alpha)) / (1 - alpha)
    else:
        K = 129 if n_dim == 2 else 41
        centers = (np.arange(K) + 0.5) / K - 0.5
        mesh = np.meshgrid(*([centers] * n_dim), indexing="ij")
        rsq = np.zeros((K,) * n_dim)
        for c in mesh:
            rsq += c * c
        rad = np.sqrt(rsq)
        mid = (K - 1) // 2
        center_idx = (mid,) * n_dim
        with np.errstate(divide="ignore"):
            vals = rad ** (-alpha)
        vals[center_idx] = 0.0
        unit_avg = float(vals.sum() / K**n_dim / (1.0 - K ** (alpha - n_dim)))
    return float(spacing ** (-alpha) * unit_avg)


def build_kernel(grid: Grid, alpha: float) -> Kernel:
    """Periodised truncated power kernel W(x) = |x|^(-alpha).

    Samples carry |x_per|^(-alpha) for 0 < |x_per| <= L/2, zero beyond (box
    corners in N >= 2), and the cell average of the singularity at the origin.
    Requires alpha < N for the origin cell to be integrable.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"kernel exponent alpha must be finite and positive, got {alpha}")
    origin_value = _origin_cell_average(grid.space_dim, alpha, grid.spacing)
    rad = grid.radius
    with np.errstate(divide="ignore"):
        samples = np.where(rad > 0, rad, 1.0) ** (-alpha)
    samples = np.ascontiguousarray(samples)
    samples[rad > 0.5 * grid.box_length] = 0.0
    origin_idx = np.unravel_index(int(np.argmin(rad)), grid.shape)
    samples[origin_idx] = origin_value
    return Kernel.from_samples(grid, samples)


def _convolve_array(kernel: Kernel, rho: np.ndarray) -> np.ndarray:
    """W * rho for a real density array; quadrature weight is folded into the symbol.

    Real transforms: the half spectrum of rho times the kernel's half symbol.
    """
    spectrum = rfftn_grid(kernel.grid, rho)
    np.multiply(kernel.half_multiplier, spectrum, out=spectrum)
    return irfftn_grid(kernel.grid, spectrum)


def convolve_density(kernel: Kernel, density: MultiField) -> MultiField:
    """Spectral evaluation of (W * rho_j)(x) ~ int W(x - y) rho_j(y) dy for each component rho_j."""
    return MultiField(kernel.grid, _convolve_array(kernel, stack_of(kernel.grid, density).real).astype(complex))


def abs_power(data: np.ndarray, p: float) -> np.ndarray:
    """|z|^p, exact for p = 2 and with |0|^p = 0 for non-integer p > 0."""
    if p == 2:
        return abs_sq(data)
    return np.abs(data) ** p


def total_density(grid: Grid, x: np.ndarray, p: float = 2) -> np.ndarray:
    """sum_j |x_j|^p over the component axis of a stack, kept as a length-1 axis."""
    return abs_power(x, p).sum(axis=-1 - grid.space_dim, keepdims=True)


def _nonlinear_factor(data: np.ndarray, p: float) -> np.ndarray:
    """|z|^(p-2) z, the derivative direction of |z|^p / p; equals z for p = 2."""
    if p == 2:
        return data
    return np.abs(data) ** (p - 2) * data


def pair_interaction(q: float, f: MultiField, g: MultiField, kernel: Kernel, p: float) -> float:
    """F_q(f, g) = (1/q) iint W(x-y) rho_f(x) rho_g(y) dx dy, rho the total density sum_j |f_j|^p."""
    if q <= 0:
        raise ValueError(f"pair interaction index must be positive, got {q}")
    grid = kernel.grid
    rho_f = total_density(grid, stack_of(grid, f), p)
    rho_g = total_density(grid, stack_of(grid, g), p)
    return float(grid.cell_volume * np.sum(rho_f * _convolve_array(kernel, rho_g)) / q)


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    interaction: float
    total: float

    @classmethod
    def make(cls, kinetic: float, interaction: float) -> "EnergyBreakdown":
        return cls(kinetic=kinetic, interaction=interaction, total=kinetic - interaction)


class _EnergyState:
    """Energy of a stack (..., m, *grid.shape), with the spectrum its gradient is built from.

    An evaluation takes the spectrum xhat of the fields (one batched
    transform, none when the caller passes the spectrum it already has) and
    the real pair of the density convolution.  The dtype of x picks the
    field transforms and the |k|^2 that go with them (grid.spectral_weights):
    complex ones for a complex stack, real ones on the half spectrum for a
    real stack, which thus stays real, gradient included.  kinetic holds the
    per-component 1/2 ||grad phi_j||^2, shape (..., m); interaction and
    total hold one value per leading index.
    """

    __slots__ = ("kernel", "p", "x", "xhat", "k_squared", "pair_weight", "kinetic", "potential", "interaction", "total")

    def __init__(self, kernel: Kernel, p: float, x: np.ndarray, xhat: np.ndarray | None = None):
        g = kernel.grid
        self.kernel, self.p, self.x = kernel, p, x
        self.k_squared, k_squared_weighted, self.pair_weight = spectral_weights(g, x.dtype)
        self.xhat = forward_spectrum(g, x) if xhat is None else xhat
        self.kinetic = 0.5 * g.spectral_weight * (k_squared_weighted * abs_sq(self.xhat)).sum(axis=g.spatial_axes)
        rho = total_density(g, x, p)
        self.potential = _convolve_array(kernel, rho)
        self.interaction = g.cell_volume * (rho * self.potential).sum(axis=g.field_axes) / (2 * p)
        self.total = self.kinetic.sum(axis=-1) - self.interaction

    @property
    def energy(self) -> EnergyBreakdown:
        """Python floats for an unstacked array, else arrays over the leading axes."""
        return EnergyBreakdown.make(scalar_or_array(self.kinetic.sum(axis=-1)), scalar_or_array(self.interaction))

    def take(self, rows) -> "_EnergyState":
        """The state of the members at rows (an index or mask of the leading axis).

        The potential is copied only while the gradient has not been formed.
        """
        new = object.__new__(_EnergyState)
        new.kernel, new.p, new.k_squared, new.pair_weight = self.kernel, self.p, self.k_squared, self.pair_weight
        for name in ("x", "xhat", "kinetic", "potential", "interaction", "total"):
            value = getattr(self, name)
            setattr(new, name, None if value is None else value[rows])
        return new

    def gradient_spectrum(self):
        """(grad_hat, grad_dot_x): the spectrum of the gradient and Re<grad_j, phi_j> per component.

        grad_hat = k^2 xhat - F(V phi), V phi = (sum_k W * |phi_k|^p) |phi_j|^(p-2) phi_j,
        and Re<grad_j, phi_j> = 2 kinetic_j - Re<V phi_j, phi_j>, since
        <-lap phi, phi> = ||grad phi||^2.  One batched transform.  The
        potential is released once V phi is formed, so a state gives its
        gradient once.
        """
        g = self.kernel.grid
        v_phi = self.potential * _nonlinear_factor(self.x, self.p)
        self.potential = None
        grad_dot_x = 2.0 * self.kinetic - g.cell_volume * real_inner(v_phi, self.x, axis=g.spatial_axes)
        grad_hat = forward_spectrum(g, v_phi)
        del v_phi
        np.subtract(self.k_squared * self.xhat, grad_hat, out=grad_hat)
        return grad_hat, grad_dot_x

    def gradient(self) -> np.ndarray:
        """grad_j = -lap(phi_j) - (sum_k W * |phi_k|^p) |phi_j|^(p-2) phi_j, the inverse of gradient_spectrum."""
        return inverse_spectrum(self.kernel.grid, self.gradient_spectrum()[0], self.x.dtype)


def total_energy(fields, kernel: Kernel, p: float) -> EnergyBreakdown:
    """Energy of a MultiField, or of each member of a stack.

    For a one-component h it is E(h) = 1/2 ||grad h||^2 - F_{2p}(h, h).
    """
    return _EnergyState(kernel, p, stack_of(kernel.grid, fields)).energy


def energy_gradient(mf: MultiField, kernel: Kernel, p: float) -> MultiField:
    """L^2 gradient, grad_j = -lap(phi_j) - (sum_k W * |phi_k|^p) |phi_j|^(p-2) phi_j.

    Satisfies the directional-derivative identity
    d/de I(mf + e v) = Re<grad, v> for every direction v.
    """
    return MultiField(kernel.grid, _EnergyState(kernel, p, stack_of(kernel.grid, mf)).gradient())


def el_residual(mf: MultiField, lambdas, kernel: Kernel, p: float) -> np.ndarray:
    """Per-component L^2 norms of -lap(phi_j) + lambda_j phi_j - (nonlinearity)_j.

    Equals ||grad_j + lambda_j phi_j|| and is minimised over lambda_j at
    lambda_j = -Re<grad_j, phi_j> / mass_j.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != (mf.m,):
        raise ValueError(f"expected {mf.m} multipliers, got shape {lambdas.shape}")
    if not np.all(np.isfinite(lambdas)):
        raise ValueError("multipliers must be finite")
    grad = energy_gradient(mf, kernel, p)
    return np.sqrt(norms_sq(mf.grid, grad.data + per_component(mf.grid, lambdas) * mf.data))
