"""Shared fixtures: desk-scale reference states, scans, and traces.

Expensive solves are session-scoped so the acceptance criteria and the module
tests share one set of converged states.
"""

from dataclasses import replace

import numpy as np
import pytest

import hartreeflow as hf

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


@pytest.fixture(scope="session")
def standing_trace(desk_params, desk_kernel, gs_m2):
    """T = 5 standing-wave run recording overlaps with the minimiser and the
    worst modulus deviation per sample."""
    phi = gs_m2.fields
    cell = phi.grid.cell_volume
    moduli = np.abs(phi.data)

    def modulus_error(t, mf):
        diff = np.abs(mf.data) - moduli
        return float(np.sqrt(cell * np.max(np.sum(diff**2, axis=tuple(range(1, diff.ndim))))))

    observers = {"modulus_error": modulus_error}
    for j in range(phi.m):
        observers[f"overlap_re_{j}"] = (
            lambda jj: lambda t, mf: float(np.sum(np.conj(phi.data[jj]) * mf.data[jj]).real)
        )(j)
        observers[f"overlap_im_{j}"] = (
            lambda jj: lambda t, mf: float(np.sum(np.conj(phi.data[jj]) * mf.data[jj]).imag)
        )(j)
    return hf.evolve(
        phi, 5.0, 1e-3, desk_kernel, desk_params.power,
        ground_state=gs_m2, record_every=10, observers=observers,
    )


@pytest.fixture(scope="session")
def stability_report(desk_params, desk_kernel, gs_m2):
    return hf.stability_experiment(
        gs_m2, [0.0, 1e-3, 1e-2], 10.0, 1e-3, desk_kernel, desk_params.power, seed=5
    )
