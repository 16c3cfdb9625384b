"""Mass-constrained minimisation of the coupled Hartree energy.

The constrained infimum over tuples with prescribed L^2 masses is computed by
a Sobolev-preconditioned projected gradient descent.  The search direction is
the Euler-Lagrange residual grad_j + lambda_j phi_j smoothed per component by
P_j = (c_j - lap)^(-1), c_j = max(lambda_j, 1e-2), with its component along
phi_j removed again so that d is tangent to the mass spheres.  Each step moves
against d and rescales every component back onto its mass sphere,

    x  <-  project_masses(x - tau * d).

The preconditioner makes the iteration count independent of the grid
resolution (Danaila & Kazemi 2010; Antoine, Levitt & Tang 2017).  tau starts
from the Barzilai-Borwein length |s|^2 / |<s, y>| (s and y the changes of x
and d over the previous step; 1 on the first step), clamped to [1e-3, 1]
because larger steps amplify grid-scale noise that the energy does not see,
and is halved until the energy strictly decreases.  The energy is therefore
non-increasing across accepted steps.  Convergence is declared when
max_j ||grad_j + lambda_j phi_j|| / ||phi_j||_{H^1} <= tol with the
multipliers re-estimated at every check.

A start whose imaginary part is zero (every Gaussian start with
complex_ramp_cycles = 0) is solved in real float64 arithmetic from start to
finish: the gradient of a real field is real, so are the search direction and
the Barzilai-Borwein step, and the field transforms are the real pair
rfftn_grid / irfftn_grid on the half spectrum.  The data picks the path:
_EnergyState and _sobolev_direction take their transforms from
grid.forward_spectrum / grid.inverse_spectrum, which choose by the dtype of
their input, and _tangent_projection follows the dtype too, so one solver
serves both.  The
result is complex128 either way, and GroundState.energy is the public
total_energy of its fields.

Converged minimisers come out with strictly positive Lagrange multipliers and
each component equal to a positive profile times a constant phase; both facts
are verified by the experiment harness rather than assumed here.

One run mutates only its own state; independent runs may execute concurrently.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import grid as gridmod
from .grid import Field, Grid, MultiField
from .hartree import Kernel, EnergyBreakdown, _EnergyState, energy_gradient, total_density, total_energy
from .params import SystemParams

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 300_000
_BACKTRACK_LIMIT = 60
_SHIFT_FLOOR = 1e-2  # lower bound of c_j in the preconditioner (c_j - lap)^(-1)
_STEP_MIN, _STEP_MAX = 1e-3, 1.0  # clamp of the Barzilai-Borwein step


class ZeroMassError(ValueError):
    """A component with zero mass cannot be projected onto a mass sphere."""


class EnergyNanError(RuntimeError):
    """The flow produced a non-finite energy."""


@dataclass(frozen=True, eq=False)
class GroundState:
    """Converged (or flagged) minimiser with its diagnostics.

    stop_reason is "converged" (residual test met), "max_iters" (budget
    exhausted) or "stalled" (no step length lowered the energy).
    """

    fields: MultiField
    multipliers: np.ndarray
    energy: EnergyBreakdown
    residuals: np.ndarray
    iterations: int
    stop_reason: str
    seed: int | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @cached_property
    def correlation_spectrum(self) -> np.ndarray:
        """conj(rfftn_grid(total density)) of the fields, read-only: the fixed
        factor of the cross-correlation in evolve.orbit_distance."""
        g = self.fields.grid
        spectrum = np.conj(gridmod.rfftn_grid(g, total_density(g, self.fields.data)))
        spectrum.setflags(write=False)
        return spectrum


@dataclass(frozen=True, eq=False)
class PhaseFactorization:
    """Constant phase, aligned real part, and the relative deviation from
    a purely phase-times-positive structure."""

    theta: float
    positive_part: Field
    deviation: float


def project_masses(mf: MultiField, masses) -> MultiField:
    """Rescale each component onto its mass sphere, phi_j <- sqrt(M_j/mass_j) phi_j."""
    masses = np.asarray(masses, dtype=float)
    if masses.shape != (mf.m,):
        raise ValueError(f"expected {mf.m} masses, got shape {masses.shape}")
    current = gridmod.multifield_masses(mf)
    if np.any(current <= 0):
        raise ZeroMassError(f"cannot project components with zero mass (masses={current})")
    return MultiField(mf.grid, _project(mf.grid, mf.data, masses))


def _project(grid: Grid, x: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """x_j * sqrt(M_j / mass_j): every component rescaled onto its mass sphere."""
    return x * gridmod.per_component(grid, np.sqrt(masses / gridmod.norms_sq(grid, x)))


def gaussian_init(
    grid: Grid,
    masses,
    seed: int | None = None,
    complex_ramp_cycles: int = 0,
) -> MultiField:
    """Default initial guess: offset Gaussians of width L/10 on each component.

    A seed adds per-component jitter to the centres (so distinct seeds explore
    distinct basins); complex_ramp_cycles > 0 multiplies component j by a
    periodic phase ramp exp(i 2 pi cycles x_1 / L) and a distinct constant
    phase, producing a genuinely complex-valued start.
    """
    masses = np.asarray(masses, dtype=float)
    m = masses.size
    sigma = grid.box_length / 10.0
    rng = np.random.default_rng(seed) if seed is not None else None
    comps = []
    for j in range(m):
        center = np.zeros(grid.space_dim)
        center[0] = (j - (m - 1) / 2.0) * grid.box_length / 40.0
        if rng is not None:
            center += rng.uniform(-grid.box_length / 40.0, grid.box_length / 40.0, size=grid.space_dim)
        rsq = np.zeros(grid.shape)
        for ax, coords in enumerate(grid.coordinate_arrays):
            rsq += (coords - center[ax]) ** 2
        g = np.exp(-rsq / (2 * sigma**2)).astype(complex)
        if complex_ramp_cycles:
            x1 = grid.coordinate_arrays[0]
            ramp = 2 * np.pi * complex_ramp_cycles * (x1 + grid.box_length / 2) / grid.box_length
            g = g * np.exp(1j * (ramp + 0.3 * (j + 1)))
        comps.append(g)
    return project_masses(MultiField(grid, np.stack(comps)), masses)


def extract_multipliers(mf: MultiField, kernel: Kernel, p: float) -> np.ndarray:
    """Least-squares multipliers of the stationarity system.

    lambda_j = (Re<(sum_k W*|phi_k|^p)|phi_j|^(p-2) phi_j, phi_j> - ||grad phi_j||^2) / M_j,
    equivalently -Re<grad_j, phi_j>/M_j, which minimises ||grad_j + lambda phi_j||.
    """
    masses = gridmod.multifield_masses(mf)
    if np.any(masses <= 0):
        raise ZeroMassError("multipliers are undefined for zero-mass components")
    grad = energy_gradient(mf, kernel, p)
    return _tangent_projection(mf.grid, grad.data, mf.data, masses)[1]


def _tangent_projection(grid: Grid, v: np.ndarray, x: np.ndarray, masses: np.ndarray):
    """Remove from each v_j its L^2 component along x_j.

    Returns (v + mu x, mu) with mu_j = -Re<v_j, x_j> / M_j.  For v the energy
    gradient, mu are the Lagrange multipliers (they minimise
    ||grad_j + mu_j x_j||) and v + mu x is the Euler-Lagrange residual.
    """
    mu = -grid.cell_volume * _real_inner(v, x, axis=grid.spatial_axes) / masses
    return v + gridmod.per_component(grid, mu) * x, mu


def _real_inner(a: np.ndarray, b: np.ndarray, axis=None):
    """sum Re(conj(a) b) over axis; a real pair skips the conjugate and the zero imaginary part."""
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return np.sum((np.conj(a) * b).real, axis=axis)
    return np.sum(a * b, axis=axis)


def phase_factorize(f: Field):
    """Split f into a constant phase times an (almost) positive profile.

    theta = arg <|f|, f>, positive_part = Re(e^{-i theta} f), and
    deviation = ||f - e^{i theta} |f| ||_{L^2} / ||f||_{L^2} in [0, 2].
    """
    amp = np.abs(f.data)
    total = np.sum(amp * f.data)
    norm_sq = gridmod.mass(f)
    if norm_sq == 0:
        raise ZeroMassError("cannot phase-factorize the zero field")
    theta = float(np.angle(total))
    aligned = np.exp(-1j * theta) * f.data
    deviation = float(
        np.sqrt(f.grid.cell_volume * np.sum(np.abs(f.data - np.exp(1j * theta) * amp) ** 2) / norm_sq)
    )
    return PhaseFactorization(theta=theta, positive_part=Field(f.grid, aligned.real.astype(complex)), deviation=deviation)


def _sobolev_direction(grid: Grid, residual: np.ndarray, x: np.ndarray, x_masses, lambdas) -> np.ndarray:
    """(c_j - lap)^(-1) residual_j, projected onto the tangent space of the mass spheres.

    A real residual is smoothed on the half spectrum of the real transforms.
    """
    c = gridmod.per_component(grid, np.maximum(lambdas, _SHIFT_FLOOR))
    residual_hat, k_squared, _ = gridmod.forward_spectrum(grid, residual)
    smoothed = gridmod.inverse_spectrum(grid, residual_hat / (c + k_squared), residual.dtype)
    return _tangent_projection(grid, smoothed, x, x_masses)[0]


def _center_peak(mf: MultiField) -> MultiField:
    """Deterministic translation gauge: roll the total density peak to x = 0."""
    g = mf.grid
    peak = np.unravel_index(int(np.argmax(total_density(g, mf.data))), g.shape)
    shifts = tuple(g.points_per_dim // 2 - idx for idx in peak)
    return MultiField(g, np.roll(mf.data, shifts, axis=g.spatial_axes))


def ground_state(
    params: SystemParams,
    kernel: Kernel,
    init: MultiField | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int | None = None,
    complex_ramp_cycles: int = 0,
    center: bool = True,
) -> GroundState:
    """Minimise the energy over the product of mass spheres.

    Exhausting max_iters returns an unconverged result (flagged, never an
    exception); a non-finite energy aborts with EnergyNanError.  A start
    whose imaginary part is zero is solved in float64 arithmetic throughout;
    the returned fields are complex128 either way.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = gridmod.grid_for(params)
    if kernel.grid != g:
        raise ValueError("kernel grid does not match params grid")
    masses = np.asarray(params.masses, dtype=float)
    if init is None:
        init = gaussian_init(g, masses, seed=seed, complex_ramp_cycles=complex_ramp_cycles)
    elif init.m != params.component_count or init.grid != g:
        raise ValueError("init does not match params (component count or grid)")

    p = params.power
    start = init.data if np.any(init.data.imag) else init.data.real
    state = _EnergyState(kernel, p, _project(g, start, masses))

    stop_reason = "max_iters"
    iterations = 0
    lambdas = np.zeros(init.m)
    residuals = np.full(init.m, np.inf)
    prev_x = prev_d = None

    for iterations in range(max_iters + 1):
        if not np.isfinite(state.total):
            raise EnergyNanError(f"non-finite energy at iteration {iterations}")
        x_masses = gridmod.norms_sq(g, state.x)
        shifted, lambdas = _tangent_projection(g, state.gradient(), state.x, x_masses)
        residuals = np.sqrt(gridmod.norms_sq(g, shifted))
        h1 = np.sqrt(x_masses + 2.0 * state.kinetic)
        if np.max(residuals / h1) <= tol:
            stop_reason = "converged"
            break
        if iterations == max_iters:
            break

        d = _sobolev_direction(g, shifted, state.x, x_masses, lambdas)
        tau = _STEP_MAX
        if prev_x is not None:
            # Elementwise sums rather than np.vdot, whose BLAS call allocates
            # buffers that raise the peak memory of small solves.
            s = state.x - prev_x
            sy = abs(_real_inner(s, d - prev_d))
            if sy > 0:
                tau = min(max(np.sum(gridmod.abs_sq(s)) / sy, _STEP_MIN), _STEP_MAX)
        prev_x, prev_d = state.x, d

        accepted = None
        for _ in range(_BACKTRACK_LIMIT):
            trial = _EnergyState(kernel, p, _project(g, state.x - tau * d, masses))
            if np.isfinite(trial.total) and trial.total < state.total:
                accepted = trial
                break
            tau *= 0.5
        if accepted is None:
            # No decrease at any step length: the flow has stalled at the
            # resolution of floating point; report the current residuals.
            stop_reason = "stalled"
            break
        state = accepted

    mf = MultiField(g, state.x)
    # The public energy of the complex128 fields: state.energy to the bit for
    # a complex solve, and at roundoff from it for a real one.
    energy = total_energy(mf, kernel, p)
    if center:
        mf = _center_peak(mf)
    return GroundState(
        fields=mf,
        multipliers=np.asarray(lambdas, dtype=float),
        energy=energy,
        residuals=np.asarray(residuals, dtype=float),
        iterations=iterations,
        stop_reason=stop_reason,
        seed=seed,
    )


def single_component_ground(
    mass_value: float,
    params: SystemParams,
    kernel: Kernel,
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int | None = None,
    complex_ramp_cycles: int = 0,
) -> GroundState:
    """Single-component minimiser at the given mass (remaining params reused)."""
    single = replace(params, component_count=1, masses=(float(mass_value),))
    return ground_state(
        single,
        kernel,
        tol=tol,
        max_iters=max_iters,
        seed=seed,
        complex_ramp_cycles=complex_ramp_cycles,
    )


def save_ground_state(prefix, gs: GroundState, params: SystemParams) -> tuple[str, str]:
    """Persist a minimiser as a field snapshot plus a JSON sidecar."""
    snap_path = f"{prefix}.chfld"
    meta_path = f"{prefix}.json"
    gridmod.write_snapshot(snap_path, gs.fields)
    sidecar = {
        "masses": [float(v) for v in gridmod.multifield_masses(gs.fields)],
        "lambda": [float(v) for v in gs.multipliers],
        "energy": asdict(gs.energy),
        "residuals": [float(v) for v in gs.residuals],
        "iterations": gs.iterations,
        "converged": gs.converged,
        "stop_reason": gs.stop_reason,
        "seed": gs.seed,
        "params": asdict(params),
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snap_path, meta_path
