"""Split-step spectral propagation of the time-dependent coupled system.

The integrator advances i d/dt psi_j = lap(psi_j) + (sum_k W * |psi_k|^p)
|psi_j|^(p-2) psi_j.  The sign is fixed so that a minimiser phi with
multipliers lambda_j evolves exactly as the standing wave
psi_j(t) = exp(-i lambda_j t) phi_j: the overlap <phi_j, psi_j(t)> then
rotates at rate -lambda_j, which the experiments verify against the
multipliers extracted from the stationary problem.  (With W = 0 a plane wave
exp(i k x) consequently picks up the phase exp(+i |k|^2 t).)

Strang splitting alternates a half potential step, a full kinetic step, and a
half potential step.  Both sub-flows are isometries: the nonlocal potential
V_j = (sum_k W * |psi_k|^p) |psi_j|^(p-2) is real and frozen within a
sub-step (it depends on the moduli only, which the sub-step preserves
pointwise), so the potential sub-flow is a pointwise phase rotation, and the
kinetic sub-flow is a spectral phase rotation.  Per-component mass is
therefore conserved to roundoff each step, and the energy drift is second
order in dt.  A half-kick takes the energy's density->potential convolution
(grid.convolve_real with the kernel's half symbol) and hartree.abs_power.

Since the potential sub-flow preserves every |psi_j|, the closing half-kick of
one step and the opening half-kick of the next rotate by the same phase.
Propagator.step_array keeps the closing phase for the array it returns and
reuses it when the next call receives that very array (any other input is a
cold start), so a step costs one density->potential convolution, not two:
two real transforms of the density, and the complex transform pair of the
kinetic sub-step.  The identity test is sound because step outputs are
read-only; copy one to modify it.
A step allocates one array, its output x * phase, and runs the kinetic
sub-step and the closing half-kick in place on it, so the caller's array is
never written.  Nothing else is allocated: the half-kick chain writes
through out= into a workspace for the stack's shape, made on the first step
of a shape and replaced when the shape changes, and the phase, the kinetic
phase and the kernel's half symbol are kept there at the full shape of what
they multiply, since a numpy multiply that broadcasts allocates a buffer of
its output's size and takes about 1 us more on a (3, 2, 256) stack.  Every
floating-point operation keeps its order, so the outputs are the bits of
allocating each array per call.  The kept closing phase is the workspace's,
so a Propagator steps one stack at a time, and a step forgets it before it
rewrites the workspace.
A half-kick phase is cos + i sin of the real angle -(dt/2) V, written into
the real and imaginary views of one complex array: the complex exp of an
argument with zero real part, at two thirds of its cost.  A non-finite
field aborts (NanAbortError) at the total density of a half-kick, before
any transform: the density has 1/m of the field's points.

step_array also steps a stack of fields, shape (..., m, *grid.shape): the
total density sums the component axis, so every member sees only its own
potential.  evolve steps its starts as one stack, one call per time step, and
records them alike: one total_energy and one orbit_distance call per sample
cover every member, paying numpy's per-call overhead once.  A single start
is a 1-member stack on the same path, so each member's arrays are the same
bits as evolving it alone.  The trace arrays are allocated once, (samples,
members, ...), and orbit_distance takes the symbol of its cross-correlation,
a grid.convolve_real, from the GroundState, which computes it once.  An
EvolutionTrace holds the sample times and the series; its drifts and its
unstable flag are read off them, and the step size stays with the caller.

Well-posedness of the initial-value problem is assumed; blow-up detection is
heuristic (NaN aborts, a >10% energy drift makes the trace unstable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .grid import Grid, MultiField
from .hartree import Kernel, abs_power, total_density, total_energy
from .minimize import GroundState

ENERGY_DRIFT_FLAG = 0.10


class NanAbortError(RuntimeError):
    """The propagated field became non-finite."""


def step_count(T: float, dt: float) -> int:
    """Steps of size dt that evolve takes to reach T; T/dt must be within 1e-9 relative of a positive integer."""
    for name, value in (("T", T), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    ratio = T / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
        raise ValueError(f"T/dt must be a whole number of steps, got T={T}, dt={dt} (T/dt = {ratio!r})")
    return steps


def sample_count(steps: int, record_every: int) -> int:
    """Samples that evolve records: steps 0, record_every, 2 record_every, ... and the last step."""
    return 1 + -(-steps // record_every)


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Time series of the conserved quantities along one run.

    A trace of several starts evolved together carries a member axis right
    after the sample axis in every array but times; member(b) is the trace of
    start b alone.  The drifts of such a trace are the largest over members,
    and it is unstable if any member is.
    """

    times: np.ndarray
    masses: np.ndarray  # shape (samples, m), or (samples, members, m)
    energy: np.ndarray
    orbit_distance: np.ndarray

    @property
    def unstable(self) -> bool:
        """Some energy series leaves ENERGY_DRIFT_FLAG (10%) of its start."""
        e0 = self.energy[0]
        scale = np.maximum(np.abs(e0), 1e-30)
        return bool(np.any(np.max(np.abs(self.energy - e0), axis=0) > ENERGY_DRIFT_FLAG * scale))

    @property
    def mass_drift(self) -> float:
        """Max per-component deviation from the initial masses: relative to a
        positive initial mass, absolute for a zero one."""
        ref = self.masses[0]
        return float(np.max(np.abs(self.masses - ref) / np.where(ref > 0, ref, 1.0)))

    @property
    def energy_drift(self) -> float:
        e0 = self.energy[0]
        return float(np.max(np.abs(self.energy - e0)))

    def member(self, b: int) -> "EvolutionTrace":
        """The trace of start b of a stacked evolution."""
        return EvolutionTrace(self.times, self.masses[:, b], self.energy[:, b], self.orbit_distance[:, b])


class _Workspace:
    """The buffers of a step for stacks of one shape (111,456 B for (3, 2, 256) at p = 2).

    powers holds the |x_j|^p and, for p = 2, the squares of their real and
    imaginary parts; density, finite, spectrum and potential have one
    component row.  For p = 2 the angle is the potential, and its phase is
    written into rotation, of one component row, then spread into phase;
    otherwise the angle is powers[0] and rotation is phase.  phase, kinetic
    and symbol (the kernel's half symbol, complex since the multiply casts
    it anyway) have the full shape of what they multiply.
    """

    __slots__ = ("shape", "powers", "density", "finite", "spectrum", "potential", "rotation", "phase", "kinetic", "symbol")

    def __init__(self, prop: "Propagator", shape: tuple[int, ...]):
        g = prop.grid
        density = shape[: -1 - g.space_dim] + (1,) + g.shape
        half = density[:-1] + (g.points_per_dim // 2 + 1,)
        self.shape = shape
        self.powers = np.empty((2,) + shape)
        self.density = np.empty(density)
        self.finite = np.empty(density, dtype=bool)
        self.spectrum = np.empty(half, dtype=np.complex128)
        self.potential = np.empty(density)
        self.phase = np.empty(shape, dtype=np.complex128)
        self.rotation = np.empty(density, dtype=np.complex128) if prop.p == 2 else self.phase
        self.kinetic = np.broadcast_to(prop.kinetic_phase, shape).copy()
        self.symbol = np.broadcast_to(prop.kernel.half_multiplier.astype(np.complex128), half).copy()


class Propagator:
    """Cached Strang-splitting stepper for a fixed (grid, kernel, p, dt).

    It steps one stack at a time: a step runs in a workspace for the shape
    of the last stack stepped.
    """

    def __init__(self, grid: Grid, kernel: Kernel, p: float, dt: float):
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and positive, got {dt}")
        if kernel.grid != grid:
            raise ValueError("kernel grid mismatch")
        self.grid = grid
        self.p = p
        self.dt = dt
        self.kernel = kernel
        self.kinetic_phase = np.exp(1j * grid.k_squared * dt)
        self._work = None
        self._last = None  # the last returned array; its closing phase is the workspace's

    def _half_kick_phase(self, x: np.ndarray) -> np.ndarray:
        """exp(-i dt/2 V), the pointwise rotation of a half potential step, as the workspace's phase.

        NaN or inf anywhere in x makes the total density, which has 1/m of
        its points, non-finite there; it is checked before any transform.
        """
        w = self._work
        if w is None or w.shape != x.shape:
            w = self._work = _Workspace(self, x.shape)
        rho = total_density(self.grid, x, self.p, out=w.density, scratch=w.powers)
        if not np.isfinite(rho, out=w.finite).all():
            raise NanAbortError("non-finite field during propagation")
        u = gridmod.convolve_real(self.grid, rho, w.symbol, out=w.potential, spectrum=w.spectrum)
        if self.p != 2:
            factor = abs_power(x, self.p - 2, out=w.powers[0])
            u = np.multiply(u, factor, out=factor)
        # 0 - (dt/2) u, not -(dt/2) u: the angle is the imaginary part of
        # -0.5j * dt * u bit for bit, +0 where u is zero
        theta = np.subtract(0.0, np.multiply(0.5 * self.dt, u, out=u), out=u)
        np.cos(theta, out=w.rotation.real)
        np.sin(theta, out=w.rotation.imag)
        if w.rotation is not w.phase:
            np.copyto(w.phase, w.rotation)
        return w.phase

    def step_array(self, x: np.ndarray) -> np.ndarray:
        """One step of x, shape (..., m, *grid.shape); leading axes stack independent fields.

        Returns a new read-only array; x is never written.
        """
        warm, self._last = x is self._last, None  # this step rewrites the kept phase
        phase = self._work.phase if warm else self._half_kick_phase(x)
        g = self.grid
        y = x * phase
        gridmod.fftn_grid(g, y, out=y)
        np.multiply(self._work.kinetic, y, out=y)
        gridmod.ifftn_grid(g, y, out=y)
        y *= self._half_kick_phase(y)
        y.setflags(write=False)
        self._last = y
        return y


def orbit_distance(fields, gs: GroundState):
    """H^1 distance to the gauge orbit of a minimiser.

    Minimises sum_j ||psi_j - e^{i theta_j} phi_j(. - tau)||_{H^1}^2 over grid
    translations tau (top-1 shift of the total-density cross-correlation) and
    per-component phases theta_j = arg <phi_j(. - tau), psi_j>, and returns the
    square root.  fields is a MultiField, giving a float, or a stack
    (..., m, *grid.shape), giving one distance per leading index.
    """
    phi = gs.fields
    g = phi.grid
    x = gridmod.stack_of(g, fields)
    if x.shape[-1 - g.space_dim] != phi.m:
        raise gridmod.SizeMismatchError(f"stack shape {x.shape} does not hold {phi.m} components")
    corr = gridmod.convolve_real(g, total_density(g, x), gs.correlation_spectrum)
    peak = np.argmax(corr.reshape(corr.shape[: -1 - g.space_dim] + (-1,)), axis=-1)
    # phi rolled by each member's peak shift: index i of axis a reads (i - shift_a) mod n
    n = g.points_per_dim
    index = [gridmod.per_component(g, np.arange(phi.m))]
    for a, shift in enumerate(np.unravel_index(peak, g.shape)):
        rows = np.arange(n).reshape((n,) + (1,) * (g.space_dim - 1 - a))
        index.append((rows - gridmod.per_component(g, shift[..., None])) % n)
    shifted = phi.data[tuple(index)]
    overlaps = g.cell_volume * np.sum(np.conj(shifted) * x, axis=g.spatial_axes)
    diff = x - gridmod.per_component(g, np.exp(1j * np.angle(overlaps))) * shifted
    diff_hat = gridmod.fftn_grid(g, diff)
    h1_sq = g.spectral_weight * np.sum((1.0 + g.k_squared) * gridmod.abs_sq(diff_hat), axis=g.field_axes)
    return gridmod.scalar_or_array(np.sqrt(np.maximum(h1_sq, 0.0)))


def evolve(
    mf0,
    T: float,
    dt: float,
    kernel: Kernel,
    p: float,
    *,
    ground_state: GroundState | None = None,
    record_every: int = 1,
) -> EvolutionTrace:
    """Propagate to time T, recording conserved quantities every record_every steps.

    mf0 is one MultiField, or a sequence of them on one grid with one
    component count; a sequence is evolved as one stack and gives a trace with
    a member axis (see EvolutionTrace.member).  The trace starts at t = 0 and
    always includes the final time.  If a reference minimiser is supplied the
    orbit distance is recorded alongside; otherwise that column is NaN.  An
    energy drift beyond 10% makes the trace unstable instead of raising.
    """
    steps = step_count(T, dt)
    if isinstance(record_every, bool) or not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError(f"record_every must be a positive int, got {record_every!r}")
    single = isinstance(mf0, MultiField)
    starts = [mf0] if single else list(mf0)
    if not starts:
        raise ValueError("evolve needs at least one start")
    grid = starts[0].grid
    if any(s.grid != grid for s in starts):
        raise ValueError("starts must share one grid")
    if ground_state is not None and ground_state.fields.grid != grid:
        raise ValueError("ground_state lives on a different grid than the starts")
    prop = Propagator(grid, kernel, p, dt)
    x = np.stack([s.data for s in starts])  # a ValueError unless all have one m
    x.setflags(write=False)
    # step k lands in sample ceil(k / record_every)
    samples = sample_count(steps, record_every)
    times = np.empty(samples)
    masses = np.empty((samples,) + x.shape[:2])
    energy = np.empty((samples, len(x)))
    distances = np.full((samples, len(x)), np.nan)

    def record(k: int, x: np.ndarray) -> None:
        i = -(-k // record_every)
        times[i] = k * dt
        masses[i] = gridmod.norms_sq(grid, x)
        energy[i] = total_energy(x, kernel, p).total
        if ground_state is not None:
            distances[i] = orbit_distance(x, ground_state)

    record(0, x)
    for k in range(1, steps + 1):
        x = prop.step_array(x)
        if k % record_every == 0 or k == steps:
            record(k, x)

    trace = EvolutionTrace(times, masses, energy, distances)
    return trace.member(0) if single else trace

