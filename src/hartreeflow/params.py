"""Parameter validation and the exponents the program reads.

The solver treats the attractive kernel W(x) = |x|^(-alpha) on an N-dimensional
periodic box.  Admissibility of a configuration couples the space dimension N,
the power p of the nonlinearity, and the kernel exponent alpha through a list
of strict inequalities.  ``validate_assumptions`` evaluates every clause with
an explicit numeric margin so a rejected configuration can name the inequality
that excludes it.  SystemParams carries the two exponents of the power
kernel's dilation laws: s of the virial identity and gamma of the mass scaling.
SolverConfig holds the minimiser's settings.  Each record checks its values
when built and raises InvalidParameterError; a bool is never a number.

All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .grid import grid_for


class InvalidParameterError(ValueError):
    """A parameter is non-finite, out of range, or structurally inconsistent."""


@dataclass(frozen=True)
class SystemParams:
    """Physical and discretisation parameters of one run.

    masses holds one positive constraint value per component; the kernel is
    W(x) = |x|^(-kernel_exponent); the box is [-L/2, L/2)^N sampled with
    points_per_dim points per axis.
    """

    space_dim: int
    component_count: int
    power: float
    kernel_exponent: float
    masses: tuple[float, ...]
    box_length: float
    points_per_dim: int

    def __post_init__(self):
        _check_type(self, numbers.Real, "power", "kernel_exponent", "box_length")
        for i, v in enumerate(self.masses):
            _check_number(f"masses[{i}]", v, numbers.Real)
        object.__setattr__(self, "masses", tuple(float(v) for v in self.masses))
        try:
            grid_for(self)  # space_dim, points_per_dim and box_length are the grid's
        except ValueError as exc:
            raise InvalidParameterError(str(exc)) from None
        _check_type(self, numbers.Integral, "space_dim", "component_count", "points_per_dim")
        if self.component_count not in (1, 2, 3):
            raise InvalidParameterError(f"component_count must be 1, 2, or 3, got {self.component_count}")
        if len(self.masses) != self.component_count:
            raise InvalidParameterError(f"expected {self.component_count} masses, got {len(self.masses)}")
        for v in (self.power, self.kernel_exponent, *self.masses):
            if not math.isfinite(v):
                raise InvalidParameterError(f"non-finite parameter value {v!r}")
        if any(m <= 0 for m in self.masses):
            raise InvalidParameterError(f"all masses must be positive, got {self.masses}")
        if self.kernel_exponent <= 0:
            raise InvalidParameterError(f"kernel_exponent must be positive, got {self.kernel_exponent}")

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses))

    @property
    def dilation_exponent(self) -> float:
        """s = Np - 2N + alpha: under u_b = b^(N/2) u(b x) the kinetic term scales
        as b^2 and the interaction as b^s, the exponent of the virial identity."""
        n_dim = self.space_dim
        return n_dim * self.power - 2 * n_dim + self.kernel_exponent

    @property
    def mass_scaling_exponent(self) -> float:
        """gamma = 1 + 2(p - 1)/(2 - s): u -> a u(b x) with a^2 = theta b^N and
        b^(2-s) = theta^(p-1) scales every mass by theta and the energy by
        theta^gamma, so I(theta M) = theta^gamma I(M) on R^N.  Defined for
        s < 2, the clause h2.kernel-growth; InvalidParameterError otherwise."""
        s = self.dilation_exponent
        if not s < 2:
            raise InvalidParameterError(
                f"the mass-scaling exponent needs s = Np - 2N + alpha < 2 (h2.kernel-growth), got s = {s:.6g}"
            )
        return 1 + 2 * (self.power - 1) / (2 - s)


@dataclass(frozen=True)
class SolverConfig:
    """Every solve stops at residual tol (finite, > 0) or after max_iters
    iterations; an infimum is the lowest of seeds runs (both ints >= 1)."""

    tol: float = 1e-6
    max_iters: int = 300_000
    seeds: int = 2

    def __post_init__(self):
        _check_type(self, numbers.Real, "tol")
        _check_type(self, numbers.Integral, "max_iters", "seeds")
        if not 0 < self.tol < math.inf:
            raise InvalidParameterError(f"tol must be finite and positive, got {self.tol!r}")
        for name in ("max_iters", "seeds"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be positive, got {getattr(self, name)}")


def _check_type(record, kind, *names: str) -> None:
    """Refuse each named field of record as _check_number does."""
    for name in names:
        _check_number(name, getattr(record, name), kind)


def _check_number(name: str, value, kind) -> None:
    """Refuse value unless it is an int (kind numbers.Integral) or number (numbers.Real) in float range."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an int" if kind is numbers.Integral else "a number"
        raise InvalidParameterError(f"{name} must be {what}, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise InvalidParameterError(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class ValidationClause:
    """One inequality of the admissibility check.

    margin is (rhs - lhs); for a strict clause, margin must be > 0 to pass,
    so a margin of exactly 0 fails.
    """

    name: str
    description: str
    margin: float
    strict: bool

    @property
    def passed(self) -> bool:
        return self.margin > 0 if self.strict else self.margin >= 0


@dataclass(frozen=True)
class ValidationReport:
    clauses: tuple[ValidationClause, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> ValidationClause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    def failing(self) -> tuple[ValidationClause, ...]:
        return tuple(c for c in self.clauses if not c.passed)

    def summary(self) -> str:
        lines = []
        for c in self.clauses:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status:4s}  {c.name:16s} margin={c.margin:+.6g}  {c.description}")
        return "\n".join(lines)


def validate_assumptions(params: SystemParams) -> ValidationReport:
    """Evaluate every admissibility inequality with its numeric margin.

    Clauses (r = N/alpha):
      weak-index     1/r < 2/N, i.e. the kernel exponent stays below 2
      power-lower    p >= 2 (non-strict)
      power-upper    p < (2r-1)/r + 2/N
      kernel-growth  alpha < 2 + 2N - pN
      kernel-shape   W is nonnegative, radial, and decays at infinity;
                     automatic for the power kernel, reported with the decay
                     exponent as its margin
    """
    n_dim = params.space_dim
    p = params.power
    alpha = params.kernel_exponent
    r = n_dim / alpha

    clauses = (
        ValidationClause(
            name="h0.weak-index",
            description=f"1/r < 2/N with r = N/alpha = {r:.6g}",
            margin=2.0 / n_dim - 1.0 / r,
            strict=True,
        ),
        ValidationClause(
            name="h0.power-lower",
            description="p >= 2",
            margin=p - 2.0,
            strict=False,
        ),
        ValidationClause(
            name="h0.power-upper",
            description=f"p < (2r-1)/r + 2/N = {(2 * r - 1) / r + 2.0 / n_dim:.6g}",
            margin=(2 * r - 1) / r + 2.0 / n_dim - p,
            strict=True,
        ),
        ValidationClause(
            name="h2.kernel-growth",
            description=f"alpha < 2 + 2N - pN = {2 + 2 * n_dim - p * n_dim:.6g}",
            margin=(2 + 2 * n_dim - p * n_dim) - alpha,
            strict=True,
        ),
        ValidationClause(
            name="h1.kernel-shape",
            description="W(x) = |x|^(-alpha) is nonnegative, radial, decaying",
            margin=alpha,
            strict=True,
        ),
    )
    return ValidationReport(clauses=clauses)
