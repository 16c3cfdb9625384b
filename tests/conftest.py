"""Shared fixtures: desk-scale reference states, scans, and traces.

Expensive solves are session-scoped so the acceptance criteria and the module
tests share one set of converged states.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

import hartreeflow as hf
from hartreeflow.evolve import Propagator

DESK = dict(
    space_dim=1,
    component_count=2,
    power=2.0,
    kernel_exponent=0.5,
    masses=(1.0, 1.0),
    box_length=40.0,
    points_per_dim=256,
)
TOL = 1e-6


def trig_field(grid, seed, modes=5, m=1):
    """Smooth random band-limited field; the same seed gives samples of the
    same continuum function on any resolution of the same box."""
    rng = np.random.default_rng(seed)
    data = np.zeros((m,) + grid.shape, dtype=complex)
    x = grid.coordinate_arrays
    for j in range(m):
        for _ in range(2 * modes):
            kvec = rng.integers(-modes, modes + 1, size=grid.space_dim)
            coeff = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + np.dot(kvec, kvec))
            phase = np.zeros(grid.shape)
            for ax in range(grid.space_dim):
                phase = phase + 2 * np.pi * kvec[ax] * x[ax] / grid.box_length
            data[j] += coeff * np.exp(1j * phase)
    return hf.MultiField(grid, data)


def gaussian_field(grid, sigma, mass_value=1.0, center=None):
    rsq = np.zeros(grid.shape)
    for ax, c in enumerate(grid.coordinate_arrays):
        shift = 0.0 if center is None else center[ax]
        rsq = rsq + (c - shift) ** 2
    data = np.exp(-rsq / (2 * sigma**2)).astype(complex)[None]
    return hf.MultiField(grid, data * np.sqrt(mass_value / hf.grid.norms_sq(grid, data)[0]))


def rescaled_gaussian(grid, sigma, b=1.0):
    """Samples of u_b(x) = b^(N/2) u(b x) for the Gaussian u = exp(-|x|^2 / (2 sigma^2)):
    width sigma / b and amplitude b^(N/2), evaluated in closed form."""
    rsq = sum(c**2 for c in grid.coordinate_arrays)
    data = b ** (grid.space_dim / 2) * np.exp(-(b**2) * rsq / (2 * sigma**2))
    return hf.MultiField(grid, data[None])


@pytest.fixture(scope="session")
def desk_params():
    return hf.SystemParams(**DESK)


@pytest.fixture(scope="session")
def desk_grid(desk_params):
    return hf.grid_for(desk_params)


@pytest.fixture(scope="session")
def desk_kernel(desk_grid, desk_params):
    return hf.build_kernel(desk_grid, desk_params.kernel_exponent)


@pytest.fixture(scope="session")
def gs_m2(desk_params, desk_kernel):
    gs = hf.ground_state(desk_params, desk_kernel, tol=TOL, seed=1)
    assert gs.converged
    return gs


@pytest.fixture(scope="session")
def gs_m2_second_seed(desk_params, desk_kernel):
    gs = hf.ground_state(desk_params, desk_kernel, tol=TOL, seed=2)
    assert gs.converged
    return gs


@pytest.fixture(scope="session")
def gs_m2_complex(desk_params, desk_grid, desk_kernel):
    init = hf.gaussian_init(desk_grid, desk_params.masses, seed=7, complex_ramp_cycles=1)
    gs = hf.ground_state(desk_params, desk_kernel, init, tol=TOL, seed=7)
    assert gs.converged
    return gs


@pytest.fixture(scope="session")
def gs_m1(desk_params, desk_kernel):
    params = replace(desk_params, component_count=1, masses=(1.0,))
    gs = hf.ground_state(params, desk_kernel, tol=TOL, seed=4)
    assert gs.converged
    return gs


@pytest.fixture(scope="session")
def scan_m2(desk_params, desk_kernel):
    pairs = hf.default_mass_pairs_m2()
    return hf.subadditivity_scan(
        pairs, desk_params, desk_kernel, tol=TOL, seeds_per_value=2, base_seed=0
    )


@pytest.fixture(scope="session")
def scan_m3(desk_params, desk_kernel):
    params3 = replace(desk_params, component_count=3, masses=(1.0, 1.0, 1.0))
    cases = hf.default_cases_m3(seed=0, extra_random=2)
    pairs = [(m, t) for _, m, t in cases]
    return hf.subadditivity_scan(
        pairs, params3, desk_kernel, tol=TOL, seeds_per_value=2, base_seed=0
    )


class StandingTrace(NamedTuple):
    times: np.ndarray
    mass_drift: float  # largest relative deviation of a component's mass
    modulus_error: np.ndarray  # worst L2 deviation of a component's modulus from the minimiser's
    overlaps: np.ndarray  # (samples, m): sum of conj(phi_j) psi_j over the grid


@pytest.fixture(scope="session")
def standing_trace(desk_params, desk_kernel, gs_m2):
    """T = 5 standing-wave run from the minimiser, dt = 1e-3, sampled every 10 steps."""
    phi = gs_m2.fields
    grid = phi.grid
    moduli = np.abs(phi.data)

    def sample(x):
        diff = np.abs(x) - moduli
        modulus_error = np.sqrt(grid.cell_volume * np.max(np.sum(diff**2, axis=1)))
        return hf.grid.norms_sq(grid, x), modulus_error, np.sum(np.conj(phi.data) * x, axis=1)

    prop = Propagator(grid, desk_kernel, desk_params.power, 1e-3)
    x = phi.data
    rows = [sample(x)]
    for k in range(1, 5001):
        x = prop.step_array(x)
        if k % 10 == 0:
            rows.append(sample(x))
    masses, modulus_error, overlaps = (np.array(column) for column in zip(*rows))
    return StandingTrace(
        times=np.arange(0, 5001, 10) * 1e-3,
        mass_drift=float(np.max(np.abs(masses - masses[0]) / masses[0])),
        modulus_error=modulus_error,
        overlaps=overlaps,
    )


@pytest.fixture(scope="session")
def stability_report(desk_params, desk_kernel, gs_m2):
    return hf.stability_experiment(
        gs_m2, [0.0, 1e-3, 1e-2], 10.0, 1e-3, desk_kernel, desk_params.power, seed=5
    )
