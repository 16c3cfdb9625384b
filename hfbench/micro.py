"""Micro timings of single layer operations on a workload's reference state.

Each figure is the median, over BATCHES batches after warm-up, of the mean
time of one call within a batch; a batch repeats the call for about
BATCH_SECONDS so that timer resolution does not matter.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCHES = 15
BATCH_SECONDS = 0.02


def _median_us(fn) -> float:
    for _ in range(3):
        fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    per_batch = max(1, int(BATCH_SECONDS / once))
    means = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        means.append((time.perf_counter() - t0) / per_batch)
    return 1e6 * statistics.median(means)


def micro_timings(gs, kernel, p: float, dt: float) -> dict:
    from hartreeflow import Field, convolve_density, energy_gradient, orbit_distance, total_energy
    from hartreeflow.evolve import Propagator

    mf = gs.fields
    grid = mf.grid
    axes = tuple(range(1, 1 + grid.space_dim))
    density = Field(grid, np.sum(np.abs(mf.data) ** 2, axis=0))
    prop = Propagator(grid, kernel, p, dt)

    def energy_and_gradient():
        total_energy(mf, kernel, p)
        energy_gradient(mf, kernel, p)

    return {
        "grid.fft_us": _median_us(lambda: np.fft.fftn(mf.data, axes=axes)),
        "hartree.convolve_us": _median_us(lambda: convolve_density(kernel, density)),
        "hartree.energy_grad_us": _median_us(energy_and_gradient),
        "evolve.step_us": _median_us(lambda: prop.step_array(mf.data)),
        "evolve.orbit_distance_us": _median_us(lambda: orbit_distance(mf, gs)),
    }
