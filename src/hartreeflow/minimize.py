"""Mass-constrained minimisation of the coupled Hartree energy.

The constrained infimum over tuples with prescribed L^2 masses is computed by
a Sobolev-preconditioned projected gradient descent.  The search direction is
the Euler-Lagrange residual R_j = grad_j + lambda_j phi_j smoothed per
component by P_j = (c_j - lap)^(-1), c_j = max(lambda_j, 1e-2), with its
component along phi_j removed again so that d is tangent to the mass
spheres.  Each step moves against d and rescales every component back onto
its mass sphere,

    x  <-  project_masses(x - tau * d).

The preconditioner makes the iteration count independent of the grid
resolution (Danaila & Kazemi 2010; Antoine, Levitt & Tang 2017).  tau starts
from the Barzilai-Borwein length |s|^2 / |<s, y>| (s and y the changes of x
and d over the previous step; 1 on the first step), clamped to [1e-3, 1]
because larger steps amplify grid-scale noise that the energy does not see,
and is halved until the energy strictly decreases.  The energy is therefore
non-increasing across accepted steps.  Convergence is declared when
max_j ||R_j|| / ||phi_j||_{H^1} <= tol with the multipliers re-estimated at
every check.

The loop carries the spectrum xhat of its iterate next to x, and forms the
residual and the direction in spectral space (F the field transform of
grid.forward_spectrum, V x = (sum_k W * |phi_k|^p) |phi_j|^(p-2) phi_j):

    R_hat = k^2 xhat - F(V x) + lambda xhat,    lambda_j = -(2 kinetic_j - Re<V x_j, x_j>) / M_j,
    d_hat = R_hat / (c + k^2) + mu xhat,         d = F^-1(d_hat),

where ||R_j|| and the inner product behind mu come from Parseval on the
spectra (grid.spectral_inner).  A trial is the pair s (x - tau d),
s (xhat - tau d_hat), s the rescaling onto the mass spheres, and its energy
needs no field transform.  So one iteration makes four batched transforms:
F(V x) of the accepted state, F^-1(d_hat), and the real pair of the trial's
density convolution; a further backtracking trial makes two.  The carried
spectrum parts from F(x) by rounding alone, ~1e-14 of its size after
thousands of iterations.

A start whose imaginary part is zero (every Gaussian start that
ground_state builds itself) is solved in real float64 arithmetic from start to
finish: the gradient of a real field is real, so are the search direction and
the Barzilai-Borwein step, and the field transforms are the real pair
rfftn_grid / irfftn_grid on the half spectrum.  The data picks the path:
_EnergyState takes its transforms and |k|^2 from grid.spectral_weights,
forward_spectrum and inverse_spectrum, which choose by the dtype of the
stack, so one solver serves both.  A complex start is handed over as init,
for instance gaussian_init(grid, masses, seed, complex_ramp_cycles=k).  The
result is complex128 either way, and GroundState.energy is the public
total_energy of its fields.  A one-component problem is a SystemParams with
component_count=1; there is no separate entry point.

ground_state also takes a sequence of problems that share the grid, p and m
and differ in their masses (a scan's infima and seeds), and solves them as
stacks (B, m, *grid.shape) through _minimize, the one iteration loop; a
solo solve is a 1-member stack.  Each member keeps its own step, its own
backtracking, its own iteration count and stop reason, and leaves the live
stack when it stops.  Every reduction runs over one member's own axes and
the batched transforms act row by row, so each member's iterates are the
bits of solving it alone.  A stack pays numpy's per-call overhead once per
iteration rather than once per member, most of the cost of a small grid.
On a shared 2-core Xeon VM, the time of one member-iteration (us, median of
31 timings of 25 iterations from Gaussian starts, 101 for 2D; the quartiles
of one entry lie up to 50% apart there) against the stack size B,
and the tracemalloc peak of the call (start state and loop) at the
smallest and largest B:

    1D n=256, m=1   B=1: 112  B=4: 35  B=8: 18  B=16: 12  B=32: 11         31 -  785 KiB
    1D n=256, m=2   B=1: 100  B=4: 33  B=8: 21  B=16: 18  B=24: 14  B=32: 15   49 - 1366 KiB
    1D n=256, m=3   B=1: 129  B=4: 44  B=8: 29  B=16: 23  B=24: 20  B=32: 25   70 - 2040 KiB
    2D n=64,  m=2   B=1: 383  B=2: 340  B=3: 330  B=4: 341                  721 - 2864 KiB
    peak: 85-100 B per field point

The gain flattens past ~10,000 field points, while the memory of the stack
grows with B.  So stack_capacity(params) gives how many such problems one
call should hold: those that fit in _STACK_POINTS = 16,384 field points, at
least one.  That holds a reference scan's 20 two-component runs at two
seeds (10,240 points) or its 30 at three seeds (15,360) in one call, and
two 2D n=64, m=2 members (8,192 points each).  Pairing the 2D members is a
trade: a member-iteration costs ~11% less, and a check-lemmas run at the
lemmas-2d parameters makes 2 calls (its reference solve and the two runs of
I(M/2)) rather than 3 solo calls, while the loop's peak doubles (721 to
1,435 KiB; the process peak rises by ~0.8 MiB).  A 2D n=128, m=2 member
(32,768 points) is alone.
ground_state itself stacks every problem it is given (one stack per dtype
of the starts), as evolve stacks every start.

Converged minimisers come out with strictly positive Lagrange multipliers and
each component equal to a positive profile times a constant phase; both facts
are verified by the experiment harness rather than assumed here.

One run mutates only its own state; independent runs may execute concurrently.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property

import numpy as np

from . import grid as gridmod
from .grid import Grid, MultiField
from .hartree import Kernel, EnergyBreakdown, _EnergyState, total_density, total_energy
from .params import SystemParams

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 300_000
_BACKTRACK_LIMIT = 60
_SHIFT_FLOOR = 1e-2  # lower bound of c_j in the preconditioner (c_j - lap)^(-1)
_STEP_MIN, _STEP_MAX = 1e-3, 1.0  # clamp of the Barzilai-Borwein step
# Most field points (members x m x grid points) of one stacked call, see
# stack_capacity and the table above; a member larger than this is solved in
# a stack of its own.
_STACK_POINTS = 16_384


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
class GroundStateStack:
    """The members of a stacked ground_state call, in the order of its problems.

    iterations (a Python int, the sum over members) and converged (every
    member converged) describe the call as a whole.
    """

    members: tuple[GroundState, ...]

    @property
    def iterations(self) -> int:
        return sum(gs.iterations for gs in self.members)

    @property
    def converged(self) -> bool:
        return all(gs.converged for gs in self.members)


@dataclass(frozen=True, eq=False)
class PhaseFactorization:
    """Per component: the constant phase, the aligned real part, and the
    relative deviation from a purely phase-times-positive structure."""

    theta: np.ndarray  # shape (m,)
    positive_part: MultiField
    deviation: np.ndarray  # shape (m,)


def project_masses(mf: MultiField, masses) -> MultiField:
    """Rescale each component onto its mass sphere, phi_j <- sqrt(M_j/mass_j) phi_j."""
    masses = np.asarray(masses, dtype=float)
    if masses.shape != (mf.m,):
        raise ValueError(f"expected {mf.m} masses, got shape {masses.shape}")
    if not np.all(np.isfinite(masses) & (masses > 0)):
        raise ValueError(f"masses must be finite and positive, got {masses}")
    current = gridmod.norms_sq(mf.grid, mf.data)
    if np.any(current <= 0):
        raise ZeroMassError(f"cannot project components with zero mass (masses={current})")
    return MultiField(mf.grid, _project(mf.grid, mf.data, masses))


def _project(grid: Grid, x: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """x_j * sqrt(M_j / mass_j): every component rescaled onto its mass sphere."""
    return x * gridmod.per_component(grid, np.sqrt(masses / gridmod.norms_sq(grid, x)))


def _trial_point(grid: Grid, x, xhat, d, d_hat, step, masses):
    """(x - step d, its spectrum xhat - step d_hat), both rescaled onto the mass spheres."""
    trial = np.multiply(step, d)
    np.subtract(x, trial, out=trial)
    scale = gridmod.per_component(grid, np.sqrt(masses / gridmod.norms_sq(grid, trial)))
    trial *= scale
    trial_hat = np.multiply(step, d_hat)
    np.subtract(xhat, trial_hat, out=trial_hat)
    trial_hat *= scale
    return trial, trial_hat


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
    masses = gridmod.norms_sq(mf.grid, mf.data)
    if np.any(masses <= 0):
        raise ZeroMassError("multipliers are undefined for zero-mass components")
    return -_EnergyState(kernel, p, mf.data).gradient_spectrum()[1] / masses


def phase_factorize(mf: MultiField) -> PhaseFactorization:
    """Split each component f_j into a constant phase times an (almost) positive profile.

    theta_j = arg <|f_j|, f_j>, positive_part_j = Re(e^{-i theta_j} f_j), and
    deviation_j = ||f_j - e^{i theta_j} |f_j| ||_{L^2} / ||f_j||_{L^2} in [0, 2].
    """
    g = mf.grid
    amp = np.abs(mf.data)
    norm_sq = gridmod.norms_sq(g, mf.data)
    if np.any(norm_sq == 0):
        raise ZeroMassError("cannot phase-factorize a zero component")
    theta = np.angle(np.sum(amp * mf.data, axis=g.spatial_axes))
    aligned = gridmod.per_component(g, np.exp(-1j * theta)) * mf.data
    misfit = np.abs(mf.data - gridmod.per_component(g, np.exp(1j * theta)) * amp) ** 2
    deviation = np.sqrt(g.cell_volume * np.sum(misfit, axis=g.spatial_axes) / norm_sq)
    return PhaseFactorization(theta=theta, positive_part=MultiField(g, aligned.real), deviation=deviation)


def _center_peak(mf: MultiField) -> MultiField:
    """Deterministic translation gauge: roll the total density peak to x = 0."""
    g = mf.grid
    peak = np.unravel_index(int(np.argmax(total_density(g, mf.data))), g.shape)
    shifts = tuple(g.points_per_dim // 2 - idx for idx in peak)
    return MultiField(g, np.roll(mf.data, shifts, axis=g.spatial_axes))


def ground_state(
    params: SystemParams | Sequence[SystemParams],
    kernel: Kernel,
    init: MultiField | Sequence[MultiField | None] | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    seed: int | Sequence[int | None] | None = None,
    center: bool = True,
) -> GroundState | GroundStateStack:
    """Minimise the energy over the product of mass spheres.

    params is one SystemParams, giving a GroundState, or a sequence of them
    that differ only in their masses, giving a GroundStateStack of one member
    per problem; seed and init are then sequences with one entry per problem
    (None: no seed, or the Gaussian start, for every member).  Exhausting
    max_iters returns an unconverged result (flagged, never an exception); a
    non-finite energy aborts with EnergyNanError.  tol must be finite and
    positive and max_iters a non-negative int, else ValueError.  A start
    whose imaginary part is zero is solved in float64 arithmetic throughout;
    the returned fields are complex128 either way.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValueError(f"max_iters must be a non-negative int, got {max_iters!r}")
    single = isinstance(params, SystemParams)
    problems = [params] if single else list(params)
    if not problems:
        raise ValueError("ground_state needs at least one problem")
    seeds = [seed] if single else _one_per_problem(seed, len(problems), "seed")
    inits = [init] if single else _one_per_problem(init, len(problems), "init")
    first = problems[0]
    shared = [f.name for f in dataclass_fields(SystemParams) if f.name != "masses"]
    if any(getattr(q, name) != getattr(first, name) for q in problems for name in shared):
        raise ValueError("stacked problems must differ only in their masses")
    g = gridmod.grid_for(first)
    if kernel.grid != g:
        raise ValueError("kernel grid does not match params grid")
    masses = np.array([q.masses for q in problems], dtype=float)

    starts = []
    for member_masses, member_seed, start in zip(masses, seeds, inits):
        if start is None:
            start = gaussian_init(g, member_masses, seed=member_seed)
        elif start.m != first.component_count or start.grid != g:
            raise ValueError("init does not match params (component count or grid)")
        starts.append(start.data if np.any(start.data.imag) else start.data.real)

    p = first.power
    results = [None] * len(problems)
    for dtype in dict.fromkeys(s.dtype for s in starts):
        rows = [b for b, s in enumerate(starts) if s.dtype == dtype]
        # The loop holds the start only through its state, and drops it at the first step.
        fields, lambdas, residuals, iterations, reasons = _minimize(
            _EnergyState(kernel, p, _project(g, np.stack([starts[b] for b in rows]), masses[rows])),
            masses[rows],
            tol,
            max_iters,
        )
        fields = fields.astype(np.complex128)
        # The public energy of the complex128 fields: the loop's energy to
        # the bit for a complex solve, and at roundoff from it for a real one.
        energy = total_energy(fields, kernel, p)
        for r, b in enumerate(rows):
            mf = MultiField(g, fields[r])
            results[b] = GroundState(
                fields=_center_peak(mf) if center else mf,
                multipliers=lambdas[r],
                energy=EnergyBreakdown.make(float(energy.kinetic[r]), float(energy.interaction[r])),
                residuals=residuals[r],
                iterations=iterations[r],
                stop_reason=reasons[r],
                seed=seeds[b],
            )
    return results[0] if single else GroundStateStack(tuple(results))


def stack_capacity(params: SystemParams) -> int:
    """How many problems shaped like params one stacked ground_state call should hold.

    As many as fit in _STACK_POINTS field points, and at least one.
    """
    return max(1, _STACK_POINTS // (params.component_count * gridmod.grid_for(params).total_points))


def _one_per_problem(values, count: int, name: str) -> list:
    if values is None:
        return [None] * count
    values = list(values)
    if len(values) != count:
        raise ValueError(f"expected one {name} per problem ({count}), got {len(values)}")
    return values


def _minimize(state: _EnergyState, masses: np.ndarray, tol: float, max_iters: int):
    """The minimiser loop from the state of a stack (B, m, *grid.shape) on its mass spheres masses (B, m).

    Every member has its own step, backtracking, stop reason and iteration
    count, and leaves the live stack when it stops; each reduction runs over
    one member's own axes, so its iterates are the bits of a stack of its
    own.  Returns the final fields (B, m, *grid.shape), multipliers and
    residuals (B, m), and the iteration counts and stop reasons (lists).
    """
    kernel, p = state.kernel, state.p
    g = kernel.grid
    fields = np.empty_like(state.x)
    lambdas_out = np.empty(masses.shape)
    residuals_out = np.empty(masses.shape)
    iterations = [0] * len(masses)
    reasons = [""] * len(masses)
    live = np.arange(len(masses))  # the member on each row of the live stack
    per_member = (-1,) + (1,) * (1 + g.space_dim)  # shape of one value per row, broadcast over its fields
    # Every accepted step has a finite energy, so only the start can fail.
    if not np.isfinite(state.total).all():
        raise EnergyNanError("non-finite energy at iteration 0")
    prev_x = prev_d = None

    def finish(rows, why):
        """Stop the members on rows of the live stack at this iteration, for the reasons why."""
        members = live[rows]
        fields[members] = state.x[rows]
        lambdas_out[members] = lambdas[rows]
        residuals_out[members] = residuals[rows]
        for b, reason in zip(members, why):
            iterations[b], reasons[b] = it, reason

    for it in range(max_iters + 1):
        # The Euler-Lagrange residual R = grad + lambda x, formed in spectral
        # space; its norms come from Parseval.
        x_masses = gridmod.norms_sq(g, state.x)
        residual_hat, grad_dot_x = state.gradient_spectrum()
        lambdas = -grad_dot_x / x_masses
        residual_hat += gridmod.per_component(g, lambdas) * state.xhat
        residuals = np.sqrt(gridmod.spectral_inner(g, residual_hat, residual_hat, state.pair_weight))
        h1 = np.sqrt(x_masses + 2.0 * state.kinetic)
        converged = (residuals / h1).max(axis=-1) <= tol
        stop = converged if it < max_iters else np.ones_like(converged)
        if stop.any():
            rows = np.flatnonzero(stop)
            finish(rows, ["converged" if converged[r] else "max_iters" for r in rows])
            if stop.all():
                break
            keep = ~stop
            state, live, masses = state.take(keep), live[keep], masses[keep]
            residual_hat, lambdas, residuals, x_masses = residual_hat[keep], lambdas[keep], residuals[keep], x_masses[keep]
            if prev_x is not None:
                prev_x, prev_d = prev_x[keep], prev_d[keep]

        # The direction d = (c_j - lap)^(-1) R_j + mu_j x_j, tangent to the
        # mass spheres, is formed in the buffer of R; d = F^-1(d_hat) is the
        # loop's one inverse field transform.
        d_hat = residual_hat
        del residual_hat  # else the buffer would outlive d_hat into the next iteration
        d_hat /= gridmod.per_component(g, np.maximum(lambdas, _SHIFT_FLOOR)) + state.k_squared
        mu = -gridmod.spectral_inner(g, d_hat, state.xhat, state.pair_weight) / x_masses
        d_hat += gridmod.per_component(g, mu) * state.xhat
        d = gridmod.inverse_spectrum(g, d_hat, state.x.dtype)
        if prev_x is None:
            tau = np.full(len(live), _STEP_MAX)
        else:
            # Elementwise sums rather than np.vdot, whose BLAS call allocates
            # buffers that raise the peak memory of small solves.  s and y
            # overwrite the previous iterate and direction, which only they read.
            s, y = np.subtract(state.x, prev_x, out=prev_x), np.subtract(d, prev_d, out=prev_d)
            del prev_x, prev_d
            sy = np.abs(gridmod.real_inner(s, y, axis=g.field_axes))
            # |s|^2 / sy clamped, and the longest step where sy = 0
            s_sq = gridmod.abs_sq(s).sum(axis=g.field_axes)
            del s, y
            ratio = np.divide(s_sq, sy, out=np.full_like(sy, np.inf), where=sy > 0)
            tau = np.minimum(np.maximum(ratio, _STEP_MIN), _STEP_MAX)
        prev_x, prev_d = state.x, d

        # Backtracking on the rows that have not lowered their energy yet,
        # with their fields, spectra, directions, masses, energies and steps.
        rows, xs, xhats, ds, d_hats, ms, es, ts = (
            np.arange(len(live)), state.x, state.xhat, d, d_hat, masses, state.total, tau
        )
        accepted = []  # (rows, trial state of those rows)
        for _ in range(_BACKTRACK_LIMIT):
            trial = _EnergyState(kernel, p, *_trial_point(g, xs, xhats, ds, d_hats, ts.reshape(per_member), ms))
            lowered = np.isfinite(trial.total) & (trial.total < es)
            if lowered.all():
                accepted.append((rows, trial))
                rows = None
                break
            if lowered.any():
                accepted.append((rows[lowered], trial.take(lowered)))
            kept = ~lowered
            rows, xs, xhats, ds, d_hats = rows[kept], xs[kept], xhats[kept], ds[kept], d_hats[kept]
            ms, es, ts = ms[kept], es[kept], 0.5 * ts[kept]
        if rows is not None:
            # No decrease at any step length: the flow has stalled at the
            # resolution of floating point; report the current residuals.
            finish(rows, ["stalled"] * len(rows))
        if not accepted:
            break
        if len(accepted) == 1:
            rows, state = accepted[0]
        else:
            # Rows lowered their energy at different step lengths: one state
            # of the merged stack, member by member the bits of its trial.
            rows = np.concatenate([r for r, _ in accepted])
            order = np.argsort(rows)
            merged = [np.concatenate([getattr(t, name) for _, t in accepted])[order] for name in ("x", "xhat")]
            rows, state = rows[order], _EnergyState(kernel, p, *merged)
        del xs, xhats, ds, d_hats, d_hat, trial, accepted  # dead until the next backtracking
        if len(rows) < len(live):
            live, masses, prev_x, prev_d = live[rows], masses[rows], prev_x[rows], prev_d[rows]

    return fields, lambdas_out, residuals_out, iterations, reasons

