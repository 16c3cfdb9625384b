"""Experiment harness for the variational claims.

Every check here turns an analytic statement about the constrained
minimisation problem into a computation with an explicit margin:

* strict_scaling_check returns the gap Gamma E(u) - E(Gamma^{1/2} u) with
  F_{2p}(u, u): the gap equals (Gamma^p - Gamma) F_{2p}(u, u) identically and
  is strictly positive whenever the interaction of u is;
* cross_term_check evaluates E(phi_j) - F_p(phi_1, phi_2) on a converged
  two-component minimiser, which must come out strictly negative;
* subadditivity_scan verifies I(M + T) < I(M) + I(T) over a list of mass
  splittings (the CLI's is default_pairs(m, seed)), evaluating boundary
  cases with zero sub-masses as reduced problems in fewer components;
* concentration_profile computes the Levy concentration function
  Q(R) = sup_y int_{B_R(y)} sum_j |u_j|^2 at each radius, whose saturation
  at moderate R diagnoses tightness of the computed minimiser;
* stability_experiment perturbs a minimiser, propagates, and gives one
  StabilityEntry per perturbation size: epsilon and the member's sampled
  EvolutionTrace, from which the entry reads its worst distance to the orbit
  and its ratio to epsilon.

The scan solves the seeded runs of all infima with one component count in
stacked ground_state calls of up to stack_capacity members; each member's
iterates are the bits of its solo solve, so no result depends on the
grouping.  Each Infimum keeps its best run's EnergyBreakdown, from which
hartree.virial_residual reads the virial identity 2K = sP; with K, P > 0 and
s < 2 that identity makes the infimum -(1 - s/2) P < 0, the paper's
negativity lemma.  Every randomised sub-run derives its seed from the entry
key, so a report is deterministic given its inputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import grid as gridmod
from .grid import MultiField
from .hartree import EnergyBreakdown, Kernel, pair_interaction, total_density, total_energy
from .minimize import GroundState, ground_state, project_masses, stack_capacity
from .evolve import EvolutionTrace, evolve
from .params import SolverConfig, SystemParams


# -- concentration ------------------------------------------------------------


def concentration_profile(mf: MultiField, radii) -> np.ndarray:
    """Q(R) = sup over grid centres y of the mass of B_R(y), one value per radius.

    The sup is realised exactly over all grid centres by convolving the total
    density with the ball indicator.  Radii must be finite, nonnegative,
    strictly increasing and at most L/2; R = 0 is the cell at the centre.  The
    values are nondecreasing in R and equal the total mass once a ball
    covers the box.
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
    return values


# -- scaling and cross-term checks --------------------------------------------


def strict_scaling_check(u: MultiField, scale: float, kernel: Kernel, p: float) -> tuple[float, float]:
    """(delta, F_{2p}(u, u)): the gap delta = Gamma E(u) - E(Gamma^{1/2} u) and the pair term.

    delta equals (Gamma^p - Gamma) F_{2p}(u, u) identically; on a
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
    return scale * e_u - e_scaled, float(energy.interaction[0])


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
class Infimum:
    """The infimum at one mass vector: the energy breakdown and multipliers of
    its lowest seeded run, and every run's seed and stop reason, in seed order."""

    energy: EnergyBreakdown
    multipliers: np.ndarray
    seeds: tuple[int, ...]
    stop_reasons: tuple[str, ...]

    @property
    def value(self) -> float:
        """The lowest run's total energy."""
        return self.energy.total

    @property
    def converged(self) -> bool:
        """Every run stopped with "converged"."""
        return all(reason == "converged" for reason in self.stop_reasons)


@dataclass(frozen=True, eq=False)
class SubadditivityRecord:
    masses_m: tuple[float, ...]
    masses_t: tuple[float, ...]
    infima: tuple[Infimum, Infimum, Infimum]  # I(M), I(T), I(M + T)

    @property
    def margin(self) -> float:
        i_m, i_t, i_sum = (inf.value for inf in self.infima)
        return i_m + i_t - i_sum

    @property
    def converged(self) -> bool:
        return all(inf.converged for inf in self.infima)


@dataclass(frozen=True, eq=False)
class ScanResult:
    records: tuple[SubadditivityRecord, ...]
    excluded: tuple[SubadditivityRecord, ...]
    infimum_cache: dict  # key (sorted positive masses) -> Infimum

    @property
    def min_margin(self) -> float:
        return min((r.margin for r in self.records), default=float("nan"))


def _stable_seed(key, base_seed: int, tag: int) -> int:
    text = f"{key}|{base_seed}|{tag}".encode()
    return zlib.crc32(text)


def _mass_vector(masses) -> tuple[float, ...]:
    """masses as floats: finite, non-negative and not all zero, else ValueError."""
    vec = tuple(float(v) for v in masses)
    if not all(np.isfinite(v) and v >= 0 for v in vec) or not any(vec):
        raise ValueError(f"masses must be finite, non-negative and not all zero, got {vec}")
    return vec


def _infimum_key(masses) -> tuple[float, ...]:
    """The sorted positive masses, each rounded to 12 significant digits, so that a tiny mass stays positive."""
    positive = sorted(float(v) for v in masses if v > 0)
    return tuple(float(f"{v:.12g}") for v in positive)


def infimum_value(
    masses,
    params: SystemParams,
    kernel: Kernel,
    *,
    solver: SolverConfig = SolverConfig(),
    base_seed: int = 0,
) -> Infimum:
    """The Infimum at a mass vector, the lowest of solver.seeds seeded runs.

    Zero entries reduce the problem to the positive sub-vector: the energy is
    symmetric in the components, so only the positive masses matter.  masses
    must be finite, non-negative and not all zero, else ValueError.
    """
    key = _infimum_key(_mass_vector(masses))
    return _infima([key], params, kernel, solver=solver, base_seed=base_seed)[key]


def _infima(keys, params: SystemParams, kernel: Kernel, *, solver: SolverConfig, base_seed) -> dict:
    """The Infimum of every key (sorted positive masses), in the order of keys.

    The seeded runs of all keys with one component count are solved in
    stacked ground_state calls of stack_capacity members each; every member's
    iterates are the bits of its solo solve, so no value depends on which
    runs share a stack.  Each key keeps its runs' stop reasons and its lowest run.
    """
    seeds = {key: tuple(_stable_seed(key, base_seed, i) for i in range(solver.seeds)) for key in keys}
    runs_by_count: dict[int, list] = {}  # component count -> (key, seed) of each run
    for key, key_seeds in seeds.items():
        runs_by_count.setdefault(len(key), []).extend((key, seed) for seed in key_seeds)
    best = {}  # key -> (energy breakdown, multipliers) of its lowest run so far
    reasons = dict.fromkeys(keys, ())  # key -> stop reason of each run so far
    for count, runs in runs_by_count.items():
        size = stack_capacity(replace(params, component_count=count, masses=runs[0][0]))
        for chunk in (runs[lo : lo + size] for lo in range(0, len(runs), size)):
            stack = ground_state(
                [replace(params, component_count=count, masses=key) for key, _ in chunk],
                kernel,
                tol=solver.tol,
                max_iters=solver.max_iters,
                seed=[seed for _, seed in chunk],
            )
            for (key, _), gs in zip(chunk, stack.members):
                reasons[key] += (gs.stop_reason,)
                if key not in best or gs.energy.total < best[key][0].total:
                    best[key] = (gs.energy, gs.multipliers)
    return {key: Infimum(*best[key], seeds[key], reasons[key]) for key in keys}


def default_pairs(m: int, seed: int = 0) -> list:
    """The (M, T) mass pairs that a scan with m components checks.

    m = 1: three splittings.  m = 2: every (M, T) on {0, 0.5, 1}^2 with M, T
    nonzero and M + T > 0 componentwise, 56 pairs.  m = 3: five zero-pattern
    cases, then two positive pairs drawn from default_rng(seed).  Any other m
    raises ValueError.
    """
    if m == 1:
        return [((0.5,), (0.5,)), ((1.0,), (1.0,)), ((0.5,), (1.0,))]
    if m == 2:
        vecs = [(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0) if (a, b) != (0.0, 0.0)]
        return [(mv, tv) for mv in vecs for tv in vecs if mv[0] + tv[0] > 0 and mv[1] + tv[1] > 0]
    if m == 3:
        pairs = [
            ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),  # A9
            ((0.5, 0.0, 0.5), (0.5, 0.5, 0.5)),  # A3
            ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0)),  # B3
            ((0.0, 0.0, 1.0), (0.5, 0.5, 0.5)),  # B5
            ((0.0, 1.0, 0.0), (1.0, 0.0, 1.0)),  # B2
        ]
        rng = np.random.default_rng(seed)
        for _ in range(2):
            mv = tuple(round(float(v), 3) for v in rng.uniform(0.4, 1.2, size=3))
            tv = tuple(round(float(v), 3) for v in rng.uniform(0.4, 1.2, size=3))
            pairs.append((mv, tv))
        return pairs
    raise ValueError(f"default pairs exist for 1, 2 or 3 components, got {m}")


def subadditivity_scan(
    mass_pairs,
    params: SystemParams,
    kernel: Kernel,
    *,
    solver: SolverConfig = SolverConfig(),
    base_seed: int = 0,
) -> ScanResult:
    """Margins I(M) + I(T) - I(M + T) over a list of mass splittings.

    Every pair must have M and T of one length, with finite non-negative
    entries, M, T != 0 and M + T > 0 componentwise; else ValueError.  The three
    infima per pair are solved (with caching across pairs; the infimum is
    symmetric in the components, so keys are sorted positive masses), and a
    record whose sub-runs did not all converge is excluded and reported
    separately.
    """
    pair_list = []
    for pair in mass_pairs:
        try:
            mv, tv = (_mass_vector(vec) for vec in pair)
        except ValueError as err:
            raise ValueError(f"{err} in the pair {pair}") from None
        if len(mv) != len(tv):
            raise ValueError(f"mass vectors of a pair must have one length, got {(mv, tv)}")
        sv = tuple(a + b for a, b in zip(mv, tv))
        if any(v <= 0 for v in sv):
            raise ValueError(f"combined masses must be strictly positive, got {sv}")
        pair_list.append((mv, tv, sv))
    keys = list(dict.fromkeys(_infimum_key(vec) for triple in pair_list for vec in triple))
    cache = _infima(keys, params, kernel, solver=solver, base_seed=base_seed)

    records, excluded = [], []
    for mv, tv, sv in pair_list:
        rec = SubadditivityRecord(mv, tv, tuple(cache[_infimum_key(vec)] for vec in (mv, tv, sv)))
        (records if rec.converged else excluded).append(rec)
    return ScanResult(records=tuple(records), excluded=tuple(excluded), infimum_cache=cache)


# -- stability ------------------------------------------------------------------


# Steps between the samples of the orbit distance whose maximum each entry reports.
STABILITY_RECORD_EVERY = 25


@dataclass(frozen=True, eq=False)
class StabilityEntry:
    epsilon: float
    trace: EvolutionTrace  # the member's samples, every STABILITY_RECORD_EVERY steps

    @property
    def max_distance(self) -> float:
        """The largest sampled orbit distance."""
        return float(np.nanmax(self.trace.orbit_distance))

    @property
    def ratio(self) -> float:
        """max_distance / epsilon, inf for epsilon = 0."""
        return self.max_distance / self.epsilon if self.epsilon > 0 else float("inf")


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
    spec[:, mask] = coeffs
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
) -> tuple[StabilityEntry, ...]:
    """Perturb, propagate, and give sup_t of the orbit distance per epsilon.

    Perturbations are H^1-normalised random fields scaled by epsilon, added to
    the minimiser and projected back onto the mass spheres.  Every start is
    built (and every epsilon checked, an empty eps_list refused) before the
    ensemble is evolved as one stack, sampled every STABILITY_RECORD_EVERY
    steps.  Each entry's trace tells whether its member went unstable.
    """
    if not gs.converged:
        raise ValueError("stability experiment requires a converged minimiser")
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps_list is empty: give at least one perturbation size")
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
    ensemble = evolve(starts, T, dt, kernel, p, ground_state=gs, record_every=STABILITY_RECORD_EVERY)
    return tuple(StabilityEntry(float(eps), ensemble.member(i)) for i, eps in enumerate(eps_list))
