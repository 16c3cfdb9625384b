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

The scan solves the seeded runs of all infima with one component count in
stacked ground_state calls of up to stack_capacity members; each member's
iterates are the bits of its solo solve, so no result depends on the
grouping.  Every randomised sub-run derives its seed from the entry key, so
a report is deterministic given its inputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import grid as gridmod
from .grid import MultiField
from .hartree import Kernel, pair_interaction, total_density, total_energy
from .minimize import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    GroundState,
    ground_state,
    project_masses,
    stack_capacity,
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
    density with the ball indicator.  Radii must be finite, nonnegative,
    strictly increasing and at most L/2; R = 0 is the cell at the centre.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii)) or np.any(radii < 0):
        raise ValueError(f"radii must be finite and nonnegative, got {radii}")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    g = mf.grid
    if np.any(radii > 0.5 * g.box_length):
        raise ValueError("radii must not exceed L/2")
    rho_hat = gridmod.rfftn_grid(g, total_density(g, mf.data))
    values = np.empty_like(radii)
    for i, r in enumerate(radii):
        ball = (g.radius <= r).astype(float)
        conv = gridmod.irfftn_grid(g, gridmod.rfftn_grid(g, ball) * rho_hat)
        values[i] = g.cell_volume * conv.max()
    return ConcentrationProfile(radii=radii, q_values=values)


# -- dilation experiments -----------------------------------------------------


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
    u1: MultiField,
    theta_grid,
    kernel: Kernel,
    mass_tol: float = 1e-6,
) -> ScalingNegativityResult:
    """Find the largest dilation factor making the energy negative.

    The tuple is built from one profile, the one-component u1, as u_j =
    (M_j/M_1)^{1/2} u_1, and each is dilated by theta^{N/2} u(theta x).  Shrinking
    theta suppresses the kinetic term quadratically while the interaction
    survives, so a negative energy must appear for small enough theta; the
    test fails loudly if no grid value works.  A dilated profile whose mass is
    no longer preserved on the grid has overflowed the box and raises.
    """
    thetas = np.sort(np.asarray(theta_grid, dtype=float))
    if np.any(thetas <= 0) or np.any(thetas > 1):
        raise ValueError("theta grid must lie in (0, 1]")
    if u1.m != 1:
        raise ValueError(f"the seed profile must have one component, got {u1.m}")
    m1 = float(gridmod.norms_sq(u1.grid, u1.data)[0])
    masses = np.asarray(params.masses, dtype=float)
    if abs(m1 - masses[0]) > 1e-8 * masses[0]:
        raise ValueError(f"seed profile mass {m1:.12g} does not match M_1 = {masses[0]:.12g}")
    ratios = np.sqrt(masses / masses[0])

    energies = np.empty_like(thetas)
    kinetics = np.empty_like(thetas)
    interactions = np.empty_like(thetas)
    for i, theta in enumerate(thetas):
        dilated = gridmod.dilate(u1, theta)
        if abs(gridmod.norms_sq(u1.grid, dilated.data)[0] - m1) > mass_tol * m1:
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


def strict_scaling_check(u: MultiField, scale: float, kernel: Kernel, p: float) -> StrictScalingResult:
    """Gap in the scaling inequality E(Gamma^{1/2} u) <= Gamma E(u) - delta.

    delta_observed equals (Gamma^p - Gamma) F_{2p}(u, u) identically; on a
    minimiser component the pair term is bounded away from zero, making the
    gap strictly positive for every Gamma > 1.  E(u) and E(Gamma^{1/2} u) are
    one stacked total_energy call, and F_{2p}(u, u) is the interaction of u.
    scale must be finite and exceed 1, else ValueError.
    """
    if not (np.isfinite(scale) and scale > 1):
        raise ValueError(f"scale must be finite and exceed 1, got {scale}")
    x = gridmod.stack_of(kernel.grid, u)
    energy = total_energy(np.stack([x, np.sqrt(scale) * x]), kernel, p)
    e_u, e_scaled = float(energy.total[0]), float(energy.total[1])
    note = ""
    if p == 2:
        note = "p=2 boundary power: gap (Gamma^p - Gamma) F_2p is still strictly positive"
    return StrictScalingResult(
        scaled_energy=e_scaled,
        gamma_times_energy=scale * e_u,
        delta_observed=scale * e_u - e_scaled,
        pair_term=float(energy.interaction[0]),
        note=note,
    )


def cross_term_check(gs: GroundState, kernel: Kernel, p: float) -> tuple[float, float]:
    """E(phi_1) - F_p(phi_1, phi_2) and E(phi_2) - F_p(phi_1, phi_2).

    Both values are strictly negative on a converged two-component minimiser;
    their magnitudes are the observed margins.  The two single energies are
    one total_energy call on the stack of the one-component fields.
    """
    if not gs.converged:
        raise ValueError("cross-term check requires a converged minimiser")
    if gs.fields.m != 2:
        raise ValueError("cross-term check is defined for two components")
    cross = pair_interaction(p, *gs.fields.components, kernel, p)
    e1, e2 = total_energy(gs.fields.data[:, None], kernel, p).total
    return float(e1) - cross, float(e2) - cross


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
    return _infima(
        [key], params, kernel, tol=tol, max_iters=max_iters, seeds_per_value=seeds_per_value, base_seed=base_seed
    )[key]


def _infima(keys, params: SystemParams, kernel: Kernel, *, tol, max_iters, seeds_per_value, base_seed) -> dict:
    """infimum_value of every key (sorted positive masses), in the order of keys.

    The seeded runs of all keys with one component count are solved in
    stacked ground_state calls of stack_capacity members each; every member's
    iterates are the bits of its solo solve, so no value depends on which
    runs share a stack.  Only the lowest energy of each key is kept.
    """
    if seeds_per_value < 1:
        raise ValueError(f"seeds_per_value must be at least 1, got {seeds_per_value}")
    seeds = {key: tuple(_stable_seed(key, base_seed, i) for i in range(seeds_per_value)) for key in keys if key}
    runs_by_count: dict[int, list] = {}  # component count -> (key, seed) of each run
    for key, key_seeds in seeds.items():
        runs_by_count.setdefault(len(key), []).extend((key, seed) for seed in key_seeds)
    best = {(): (0.0, np.zeros(0))}  # key -> (energy, multipliers) of its lowest run so far
    converged = dict.fromkeys(keys, True)
    for count, runs in runs_by_count.items():
        size = stack_capacity(replace(params, component_count=count, masses=runs[0][0]))
        for chunk in (runs[lo : lo + size] for lo in range(0, len(runs), size)):
            stack = ground_state(
                [replace(params, component_count=count, masses=key) for key, _ in chunk],
                kernel,
                tol=tol,
                max_iters=max_iters,
                seed=[seed for _, seed in chunk],
            )
            for (key, _), gs in zip(chunk, stack.members):
                converged[key] &= gs.converged
                if key not in best or gs.energy.total < best[key][0]:
                    best[key] = (gs.energy.total, gs.multipliers)
    return {key: (best[key][0], converged[key], seeds.get(key, ()), best[key][1]) for key in keys}


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
    keys = list(dict.fromkeys(_infimum_key(vec) for triple in pair_list for vec in triple))
    cache = _infima(
        keys, params, kernel, tol=tol, max_iters=max_iters, seeds_per_value=seeds_per_value, base_seed=base_seed
    )

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
    masses = gridmod.norms_sq(gs.fields.grid, gs.fields.data)
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
