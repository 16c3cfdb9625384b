"""Experiment harness for the variational claims.

Every check here turns an analytic statement about the constrained
minimisation problem into a computation with an explicit margin:

* scaling_negativity_test exhibits a tuple with negative energy by shrinking a
  seed profile through the mass-critical dilation, which drives the kinetic
  term down at rate theta^2 while the interaction decays no faster than
  theta^(Np - 2N + alpha);
* strict_scaling_check measures the gap Gamma E(u) - E(Gamma^{1/2} u), which
  equals (Gamma^p - Gamma) F_{2p}(u, u) identically and is strictly positive
  whenever the interaction of u is;
* cross_term_check evaluates E(phi_j) - F_p(phi_1, phi_2) on a converged
  two-component minimiser, which must come out strictly negative;
* subadditivity_scan verifies I(M + T) < I(M) + I(T) over a grid of mass
  splittings, evaluating boundary cases with zero sub-masses as reduced
  problems in fewer components;
* concentration_profile computes the Levy concentration function
  Q(R) = sup_y int_{B_R(y)} sum_j |u_j|^2, whose saturation at moderate R
  diagnoses tightness of the computed minimiser;
* stability_experiment perturbs a minimiser, propagates, and reports the
  worst-case distance to the gauge orbit per perturbation size.

The scan solves its entries serially, in input order; every randomised
sub-run derives its seed from the entry key, so a report is deterministic
given its inputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import grid as gridmod
from .grid import Field, MultiField
from .hartree import Kernel, pair_interaction, single_energy, total_density, total_energy
from .minimize import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    GroundState,
    ground_state,
    project_masses,
)
from .evolve import evolve
from .params import SystemParams


class BoxOverflowError(ValueError):
    """A dilated profile no longer fits in the box; use larger theta or a larger box."""


class NoNegativeEnergyError(RuntimeError):
    """No grid value of theta produced a negative energy; shrink theta or enlarge the box."""


# -- concentration ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConcentrationProfile:
    """Levy concentration function sampled on a list of radii.

    q_values is nondecreasing in R; once the ball covers the box the value
    equals the total mass.
    """

    radii: np.ndarray
    q_values: np.ndarray


def concentration_profile(mf: MultiField, radii) -> ConcentrationProfile:
    """Q(R) = sup over grid centres y of the mass of B_R(y).

    The sup is realised exactly over all grid centres by convolving the total
    density with the ball indicator.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    g = mf.grid
    if np.any(radii > 0.5 * g.box_length):
        raise ValueError("radii must not exceed L/2")
    rho_hat = gridmod.fftn_grid(g, total_density(g, mf.data))
    values = np.empty_like(radii)
    for i, r in enumerate(radii):
        ball = (g.radius <= r).astype(float)
        conv = gridmod.ifftn_grid(g, gridmod.fftn_grid(g, ball) * rho_hat).real
        values[i] = g.cell_volume * conv.max()
    return ConcentrationProfile(radii=radii, q_values=values)


# -- dilation experiments -----------------------------------------------------


def omega_constant(masses, p: float) -> float:
    """Positive constant collecting the mass ratios in the dilation bound.

    Omega = 1/(2p) + (1/p) sum_{j>=2} (M_j/M_1)^{p/2}
          + 1/(2p) sum_{k,j>=2} (M_j/M_1)^{p/2} (M_k/M_1)^{p/2}.
    """
    masses = np.asarray(masses, dtype=float)
    ratios = (masses[1:] / masses[0]) ** (p / 2.0)
    return float(1.0 / (2 * p) + ratios.sum() / p + (ratios.sum() ** 2) / (2 * p))


@dataclass(frozen=True, eq=False)
class ScalingNegativityResult:
    theta_star: float
    energy_at_star: float
    thetas: np.ndarray
    energies: np.ndarray
    kinetics: np.ndarray
    interactions: np.ndarray


def scaling_negativity_test(
    params: SystemParams,
    u1: Field,
    theta_grid,
    kernel: Kernel,
    mass_tol: float = 1e-6,
) -> ScalingNegativityResult:
    """Find the largest dilation factor making the energy negative.

    The tuple is built from one profile, u_j = (M_j/M_1)^{1/2} u_1, and every
    component is dilated by u^theta(x) = theta^{N/2} u(theta x).  Shrinking
    theta suppresses the kinetic term quadratically while the interaction
    survives, so a negative energy must appear for small enough theta; the
    test fails loudly if no grid value works.  A dilated profile whose mass is
    no longer preserved on the grid has overflowed the box and raises.
    """
    thetas = np.sort(np.asarray(theta_grid, dtype=float))
    if np.any(thetas <= 0) or np.any(thetas > 1):
        raise ValueError("theta grid must lie in (0, 1]")
    m1 = gridmod.mass(u1)
    masses = np.asarray(params.masses, dtype=float)
    if abs(m1 - masses[0]) > 1e-8 * masses[0]:
        raise ValueError(f"seed profile mass {m1:.12g} does not match M_1 = {masses[0]:.12g}")
    ratios = np.sqrt(masses / masses[0])

    energies = np.empty_like(thetas)
    kinetics = np.empty_like(thetas)
    interactions = np.empty_like(thetas)
    for i, theta in enumerate(thetas):
        dilated = gridmod.dilate(u1, theta)
        if abs(gridmod.mass(dilated) - m1) > mass_tol * m1:
            raise BoxOverflowError(
                f"dilated support overflows the box at theta={theta:g}; "
                "use larger theta values or a larger box"
            )
        mf = MultiField(u1.grid, gridmod.per_component(u1.grid, ratios) * dilated.data)
        br = total_energy(mf, kernel, params.power)
        energies[i], kinetics[i], interactions[i] = br.total, br.kinetic, br.interaction

    negative = np.nonzero(energies < 0)[0]
    if negative.size == 0:
        raise NoNegativeEnergyError(
            "no theta in the grid gives a negative energy; extend the grid to smaller theta "
            "or enlarge the box"
        )
    best = int(negative.max())
    return ScalingNegativityResult(
        theta_star=float(thetas[best]),
        energy_at_star=float(energies[best]),
        thetas=thetas,
        energies=energies,
        kinetics=kinetics,
        interactions=interactions,
    )


@dataclass(frozen=True)
class StrictScalingResult:
    scaled_energy: float  # E(Gamma^(1/2) u)
    gamma_times_energy: float  # Gamma * E(u)
    delta_observed: float  # gamma_times_energy - scaled_energy
    pair_term: float  # F_{2p}(u, u)
    note: str = ""


def strict_scaling_check(u: Field, scale: float, kernel: Kernel, p: float) -> StrictScalingResult:
    """Gap in the scaling inequality E(Gamma^{1/2} u) <= Gamma E(u) - delta.

    delta_observed equals (Gamma^p - Gamma) F_{2p}(u, u) identically; on a
    minimiser component the pair term is bounded away from zero, making the
    gap strictly positive for every Gamma > 1.
    """
    if scale <= 1:
        raise ValueError(f"scale factor must exceed 1, got {scale}")
    scaled = Field(u.grid, np.sqrt(scale) * u.data)
    e_u = single_energy(u, kernel, p)
    e_scaled = single_energy(scaled, kernel, p)
    note = ""
    if p == 2:
        note = "p=2 boundary power: gap (Gamma^p - Gamma) F_2p is still strictly positive"
    return StrictScalingResult(
        scaled_energy=e_scaled,
        gamma_times_energy=scale * e_u,
        delta_observed=scale * e_u - e_scaled,
        pair_term=pair_interaction(2 * p, u, u, kernel, p),
        note=note,
    )


def cross_term_check(gs: GroundState, kernel: Kernel, p: float) -> tuple[float, float]:
    """E(phi_1) - F_p(phi_1, phi_2) and E(phi_2) - F_p(phi_1, phi_2).

    Both values are strictly negative on a converged two-component minimiser;
    their magnitudes are the observed margins.
    """
    if not gs.converged:
        raise ValueError("cross-term check requires a converged minimiser")
    comps = gs.fields.components
    if len(comps) != 2:
        raise ValueError("cross-term check is defined for two components")
    cross = pair_interaction(p, comps[0], comps[1], kernel, p)
    return (
        single_energy(comps[0], kernel, p) - cross,
        single_energy(comps[1], kernel, p) - cross,
    )


# -- subadditivity scan ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubadditivityRecord:
    masses_m: tuple[float, ...]
    masses_t: tuple[float, ...]
    i_m: float
    i_t: float
    i_sum: float
    margin: float
    seeds: tuple[int, ...]
    converged: bool


@dataclass(frozen=True, eq=False)
class ScanResult:
    records: tuple[SubadditivityRecord, ...]
    excluded: tuple[SubadditivityRecord, ...]
    infimum_cache: dict

    @property
    def min_margin(self) -> float:
        return min((r.margin for r in self.records), default=float("nan"))


def _stable_seed(key, base_seed: int, tag: int) -> int:
    text = f"{key}|{base_seed}|{tag}".encode()
    return zlib.crc32(text)


def _infimum_key(masses) -> tuple[float, ...]:
    positive = sorted(float(v) for v in masses if v > 0)
    return tuple(round(v, 12) for v in positive)


def infimum_value(
    masses,
    params: SystemParams,
    kernel: Kernel,
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seeds_per_value: int = 2,
    base_seed: int = 0,
):
    """Constrained infimum at a mass vector, minimised over several seeded runs.

    Zero entries reduce the problem to the positive sub-vector: the energy is
    symmetric in the components, so only the positive masses matter.  Returns
    (value, converged, seeds, lambdas) where converged requires every seeded
    run to have converged.
    """
    key = _infimum_key(masses)
    if len(key) == 0:
        return 0.0, True, (), np.zeros(0)
    sub_params = replace(params, component_count=len(key), masses=key)
    best = None
    seeds = []
    all_converged = True
    for i in range(seeds_per_value):
        seed = _stable_seed(key, base_seed, i)
        seeds.append(seed)
        gs = ground_state(sub_params, kernel, tol=tol, max_iters=max_iters, seed=seed)
        all_converged &= gs.converged
        if best is None or gs.energy.total < best.energy.total:
            best = gs
    return best.energy.total, all_converged, tuple(seeds), best.multipliers


def default_mass_pairs_m2(values=(0.0, 0.5, 1.0)) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """All (M, T) from the grid with M, T nonzero and M + T strictly positive."""
    vecs = [(a, b) for a in values for b in values if (a, b) != (0.0, 0.0)]
    pairs = []
    for mv in vecs:
        for tv in vecs:
            if mv[0] + tv[0] > 0 and mv[1] + tv[1] > 0:
                pairs.append((mv, tv))
    return pairs


CANONICAL_M3_CASES = (
    ("A9", (0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),
    ("A3", (0.5, 0.0, 0.5), (0.5, 0.5, 0.5)),
    ("B3", (0.0, 1.0, 1.0), (1.0, 0.0, 1.0)),
    ("B5", (0.0, 0.0, 1.0), (0.5, 0.5, 0.5)),
    ("B2", (0.0, 1.0, 0.0), (1.0, 0.0, 1.0)),
)


def default_cases_m3(seed: int = 0, extra_random: int = 2):
    """Five canonical zero-pattern cases plus seeded random positive pairs."""
    cases = [(name, m, t) for name, m, t in CANONICAL_M3_CASES]
    rng = np.random.default_rng(seed)
    for i in range(extra_random):
        m = tuple(round(float(v), 3) for v in rng.uniform(0.4, 1.2, size=3))
        t = tuple(round(float(v), 3) for v in rng.uniform(0.4, 1.2, size=3))
        cases.append((f"R{i + 1}", m, t))
    return cases


def subadditivity_scan(
    mass_pairs,
    params: SystemParams,
    kernel: Kernel,
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seeds_per_value: int = 2,
    base_seed: int = 0,
) -> ScanResult:
    """Margins I(M) + I(T) - I(M + T) over a list of mass splittings.

    Every pair must satisfy M, T != 0 and M + T > 0 componentwise.  The three
    infima per pair are solved (with caching across pairs; the infimum is
    symmetric in the components, so keys are sorted positive masses), and a
    record whose sub-runs did not all converge is excluded and reported
    separately.
    """
    pair_list = []
    for mv, tv in mass_pairs:
        mv = tuple(float(v) for v in mv)
        tv = tuple(float(v) for v in tv)
        if all(v == 0 for v in mv) or all(v == 0 for v in tv):
            raise ValueError("both mass vectors in a pair must be nonzero")
        sv = tuple(a + b for a, b in zip(mv, tv))
        if any(v <= 0 for v in sv):
            raise ValueError(f"combined masses must be strictly positive, got {sv}")
        pair_list.append((mv, tv, sv))
    keys = dict.fromkeys(_infimum_key(vec) for triple in pair_list for vec in triple)
    cache = {
        key: infimum_value(
            key,
            params,
            kernel,
            tol=tol,
            max_iters=max_iters,
            seeds_per_value=seeds_per_value,
            base_seed=base_seed,
        )
        for key in keys
    }

    records, excluded = [], []
    for mv, tv, sv in pair_list:
        vm, cm, seeds_m, _ = cache[_infimum_key(mv)]
        vt, ct, seeds_t, _ = cache[_infimum_key(tv)]
        vs, cs, seeds_s, _ = cache[_infimum_key(sv)]
        rec = SubadditivityRecord(
            masses_m=mv,
            masses_t=tv,
            i_m=vm,
            i_t=vt,
            i_sum=vs,
            margin=vm + vt - vs,
            seeds=tuple(seeds_m) + tuple(seeds_t) + tuple(seeds_s),
            converged=bool(cm and ct and cs),
        )
        (records if rec.converged else excluded).append(rec)
    return ScanResult(records=tuple(records), excluded=tuple(excluded), infimum_cache=cache)


# -- stability ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StabilityEntry:
    epsilon: float
    max_distance: float
    ratio: float  # max_distance / epsilon (inf for epsilon = 0)
    flags: dict


@dataclass(frozen=True, eq=False)
class StabilityReport:
    entries: tuple[StabilityEntry, ...]
    T: float
    dt: float


def random_h1_perturbation(grid, m: int, seed: int) -> MultiField:
    """Smooth random multifield normalised to unit H^1 norm.

    Built from random low-wavenumber Fourier modes (|k| <= kmax/4), so the
    perturbation is resolved and its H^1 norm is dominated by physical scales.
    """
    rng = np.random.default_rng(seed)
    cutoff = np.sqrt(grid.max_k_squared) / 4.0
    mask = grid.k_squared <= cutoff**2
    spec = np.zeros((m,) + grid.shape, dtype=complex)
    coeffs = rng.standard_normal((m, int(mask.sum()))) + 1j * rng.standard_normal((m, int(mask.sum())))
    for j in range(m):
        spec[j][mask] = coeffs[j]
    mf = MultiField(grid, gridmod.ifftn_grid(grid, spec))
    h1 = np.sqrt(sum(gridmod.h1_norm_sq(c) for c in mf.components))
    return MultiField(grid, mf.data / h1)


def stability_experiment(
    gs: GroundState,
    eps_list,
    T: float,
    dt: float,
    kernel: Kernel,
    p: float,
    *,
    seed: int = 0,
    record_every: int = 25,
) -> StabilityReport:
    """Perturb, propagate, and report sup_t of the orbit distance per epsilon.

    Perturbations are H^1-normalised random fields scaled by epsilon, added to
    the minimiser and projected back onto the mass spheres.  Every start is
    built (and every epsilon checked) before the ensemble is evolved as one
    stack.  Integrator instability flags propagate into the entries.
    """
    if not gs.converged:
        raise ValueError("stability experiment requires a converged minimiser")
    eps_list = list(eps_list)
    if not all(np.isfinite(eps) and eps >= 0 for eps in eps_list):
        raise ValueError(f"perturbation sizes must be finite and nonnegative, got {eps_list}")
    masses = gridmod.multifield_masses(gs.fields)
    starts = []
    for i, eps in enumerate(eps_list):
        if eps == 0:
            starts.append(gs.fields)
        else:
            pert = random_h1_perturbation(gs.fields.grid, gs.fields.m, _stable_seed("stab", seed, i))
            starts.append(
                project_masses(MultiField(gs.fields.grid, gs.fields.data + eps * pert.data), masses)
            )
    ensemble = evolve(starts, T, dt, kernel, p, ground_state=gs, record_every=record_every)
    entries = []
    for i, eps in enumerate(eps_list):
        trace = ensemble.member(i)
        max_distance = float(np.nanmax(trace.orbit_distance))
        entries.append(
            StabilityEntry(
                epsilon=float(eps),
                max_distance=max_distance,
                ratio=max_distance / eps if eps > 0 else float("inf"),
                flags=dict(trace.flags),
            )
        )
    return StabilityReport(entries=tuple(entries), T=T, dt=dt)


# -- diagnostics ----------------------------------------------------------------


def evenness_deviation(f: Field) -> float:
    """Relative L^2 asymmetry about the density peak (1D diagnostic).

    The peak is located to sub-grid accuracy with a three-point parabola and
    moved to x = 0 by a spectral shift before comparing f with its reflection.
    """
    g = f.grid
    if g.space_dim != 1:
        raise NotImplementedError("evenness diagnostic is implemented for 1D fields")
    amp = np.abs(f.data)
    i0 = int(np.argmax(amp))
    n = g.points_per_dim
    ym, y0, yp = amp[(i0 - 1) % n], amp[i0], amp[(i0 + 1) % n]
    denom = ym - 2 * y0 + yp
    frac = 0.0 if denom == 0 else 0.5 * (ym - yp) / denom
    frac = float(np.clip(frac, -0.5, 0.5))
    peak_x = g.axis_coords[i0] + frac * g.spacing
    centered = gridmod.fractional_shift(f, [-peak_x])
    rolled = np.roll(centered.data[::-1], 1)
    num = np.sqrt(np.sum(np.abs(centered.data - rolled) ** 2))
    den = np.sqrt(np.sum(np.abs(centered.data) ** 2))
    return float(num / den)


def symmetric_rearrangement_energy(f: Field, kernel: Kernel, p: float) -> float:
    """Energy of the symmetric-decreasing rearrangement of |f| (1D proxy).

    Sorting the moduli and laying them out alternately around the centre
    preserves the mass exactly; comparing energies measures how far the
    profile is from its own rearrangement.
    """
    g = f.grid
    if g.space_dim != 1:
        raise NotImplementedError("rearrangement proxy is implemented for 1D fields")
    n = g.points_per_dim
    values = np.sort(np.abs(f.data))[::-1]
    out = np.zeros(n)
    center = n // 2
    out[center] = values[0]
    for rank in range(1, n):
        offset = (rank + 1) // 2
        idx = center - offset if rank % 2 else center + offset
        out[idx % n] = values[rank]
    return single_energy(Field(g, out.astype(complex)), kernel, p)
