"""Run configuration, persistence, and command-line entry points.

A run is fully described by a JSON config plus a seed; outputs are
deterministic given (config, seed) and are written under the output directory
together with a manifest listing inputs, versions, and content hashes.  This
module writes every artifact: JSON and CSV files through _write_json and
_write_csv, which register each file for the manifest, and the ground-state
snapshot through grid.write_snapshot.

The config schema is the fields of four dataclasses: RunConfig at the top,
SystemParams under "params", SolverConfig under "solver" and EvolutionConfig
under "evolution".  Their field names are the allowed keys (unknown keys are
rejected), their types the accepted values (an int field takes a JSON
integer, a float field any JSON number, neither takes true/false), and a
field without a default is required: "params" and each of its keys.  An
example, with every optional key at its default:

    {
      "params": {"space_dim": 1, "component_count": 2, "power": 2.0,
                  "kernel_exponent": 0.5, "masses": [1.0, 1.0],
                  "box_length": 40.0, "points_per_dim": 256},
      "solver": {"tol": 1e-6, "max_iters": 300000, "seeds": 2},
      "evolution": {"T": 5.0, "dt": 0.001},
      "experiment": "validate",
      "output_dir": "out",
      "seed": 0
    }

Subcommands: validate | minimize | evolve | scan | stability | check-lemmas,
each taking --config PATH and optional --out DIR, --seed N.  check-lemmas
exits nonzero if any assertion fails.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import __version__
from . import grid as gridmod
from .analysis import (
    Infimum,
    SubadditivityRecord,
    concentration_profile,
    cross_term_check,
    default_pairs,
    infimum_value,
    stability_experiment,
    strict_scaling_check,
    subadditivity_scan,
)
from .evolve import evolve, step_count
from .hartree import build_kernel, virial_residual
from .minimize import ground_state, phase_factorize
from .params import InvalidParameterError, SystemParams, validate_assumptions


class ConfigError(ValueError):
    """Malformed or schema-violating run configuration."""


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iters: int = 300_000
    seeds: int = 2


@dataclass(frozen=True)
class EvolutionConfig:
    T: float = 5.0
    dt: float = 1e-3


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    solver: SolverConfig = field(default_factory=SolverConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    experiment: str = "validate"
    output_dir: str = "out"
    seed: int = 0


_type_hints = functools.cache(typing.get_type_hints)


def _from_json(kind, value, where: str):
    """Check one JSON value against a field type and convert it; a dataclass recurses over its fields."""
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} has wrong type: expected object, got {type(value).__name__}")
        known = fields(kind)
        unknown = set(value) - {f.name for f in known}
        if unknown:
            raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
        required = [f.name for f in known if f.default is MISSING and f.default_factory is MISSING]
        missing = [name for name in required if name not in value]
        if missing:
            raise ConfigError(f"{where} missing key(s): {', '.join(missing)}")
        hints = _type_hints(kind)
        try:
            return kind(**{key: _from_json(hints[key], v, f"{where}.{key}") for key, v in value.items()})
        except InvalidParameterError as exc:
            raise ConfigError(f"{where} invalid: {exc}") from exc
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} has wrong type: expected list, got {type(value).__name__}")
        return tuple(_from_json(typing.get_args(kind)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where} has wrong type: expected {kind.__name__}, got {type(value).__name__}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where} is too large for a float") from None
    return value


def _check_grid_fits(params: SystemParams) -> None:
    """Refuse a grid whose one complex field stack exceeds physical memory, before any array exists.

    Every experiment holds at least one such stack, 16 m n^N bytes; the
    size is compared in log2 so that no huge integer is formed.
    """
    needed_log2 = math.log2(16 * params.component_count) + params.space_dim * math.log2(params.points_per_dim)
    try:
        available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return  # the platform does not report its memory size
    if needed_log2 > math.log2(available):
        raise ConfigError(
            f"config.params.points_per_dim = {params.points_per_dim} with space_dim = {params.space_dim} "
            f"is too large: one field stack needs 2^{needed_log2:.1f} bytes, more than the "
            f"{available:.3g} bytes of memory on this machine"
        )


def parse_config(raw: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, then apply the checks that span fields."""
    config = _from_json(RunConfig, raw, "config")
    _check_grid_fits(config.params)
    report = validate_assumptions(config.params)
    if not report.passed:
        names = ", ".join(c.name for c in report.failing())
        raise ConfigError(f"parameter assumptions violated: {names}")
    # The kernel's origin cell carries a finite average only below this bound;
    # it is a limit of build_kernel, not one of the paper's clauses.
    alpha, n_dim = config.params.kernel_exponent, config.params.space_dim
    if alpha >= n_dim:
        raise ConfigError(
            f"config.params.kernel_exponent = {alpha} must be below config.params.space_dim = {n_dim}: "
            "|x|^(-alpha) is not integrable at the origin"
        )
    _check_seed(config.seed)
    solver = config.solver
    if not (np.isfinite(solver.tol) and solver.tol > 0) or solver.max_iters <= 0 or solver.seeds <= 0:
        raise ConfigError("config.solver values must be finite and positive")
    try:
        step_count(config.evolution.T, config.evolution.dt)
    except ValueError as exc:
        raise ConfigError(f"config.evolution: {exc}") from None
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}; expected one of {', '.join(EXPERIMENTS)}")
    return config


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"config.seed must be non-negative, got {seed}")


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run config; parse errors carry line info."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(raw)


# -- output helpers -------------------------------------------------------------


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(out_dir, name, obj, outputs: list) -> None:
    """Write obj as out_dir/name (sorted keys, indent 2, trailing newline) and register it in outputs."""
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(path)


def _write_csv(out_dir, name, header, rows, outputs: list) -> None:
    """Write the header and rows as the CSV out_dir/name and register it in outputs."""
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    outputs.append(path)


def _write_manifest(out_dir, config: RunConfig, inputs: dict, outputs: list) -> None:
    manifest = {
        "config": asdict(config),
        "inputs": inputs,
        "versions": {
            "hartreeflow": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "outputs": {os.path.basename(p): _sha256(p) for p in sorted(outputs)},
    }
    # the manifest hashes the registered outputs and is not one of them
    _write_json(out_dir, "manifest.json", manifest, [])


# -- experiments ----------------------------------------------------------------


def _kernel(config: RunConfig):
    return build_kernel(gridmod.grid_for(config.params), config.params.kernel_exponent)


def _solve_reference(config: RunConfig, kernel):
    return ground_state(
        config.params,
        kernel,
        tol=config.solver.tol,
        max_iters=config.solver.max_iters,
        seed=config.seed,
    )


def _run_validate(config: RunConfig, out_dir: str, outputs: list) -> int:
    report = validate_assumptions(config.params)
    print(report.summary())
    _write_json(
        out_dir,
        "validation.json",
        {
            "passed": report.passed,
            "clauses": [
                {"name": c.name, "passed": c.passed, "margin": c.margin, "strict": c.strict}
                for c in report.clauses
            ],
        },
        outputs,
    )
    return 0


def _run_minimize(config: RunConfig, out_dir: str, outputs: list) -> int:
    gs = _solve_reference(config, _kernel(config))
    snapshot = os.path.join(out_dir, "ground_state.chfld")
    gridmod.write_snapshot(snapshot, gs.fields)
    outputs.append(snapshot)
    sidecar = {
        "masses": [float(v) for v in gridmod.norms_sq(gs.fields.grid, gs.fields.data)],
        "lambda": [float(v) for v in gs.multipliers],
        "energy": asdict(gs.energy),
        "residuals": [float(v) for v in gs.residuals],
        "iterations": gs.iterations,
        "converged": gs.converged,
        "stop_reason": gs.stop_reason,
        "seed": gs.seed,
        "params": asdict(config.params),
        "virial_residual": virial_residual(gs.energy, config.params.dilation_exponent),
    }
    _write_json(out_dir, "ground_state.json", sidecar, outputs)
    status = "converged" if gs.converged else "NOT converged"
    print(
        f"minimize: {status} in {gs.iterations} iterations, "
        f"energy={gs.energy.total:.10g}, lambda={[round(float(v), 8) for v in gs.multipliers]}"
    )
    return 0


def _run_evolve(config: RunConfig, out_dir: str, outputs: list) -> int:
    kernel = _kernel(config)
    gs = _solve_reference(config, kernel)
    trace = evolve(
        gs.fields,
        config.evolution.T,
        config.evolution.dt,
        kernel,
        config.params.power,
        ground_state=gs,
        record_every=max(1, step_count(config.evolution.T, config.evolution.dt) // 200),
    )
    masses = [f"mass_{j + 1}" for j in range(config.params.component_count)]
    _write_csv(
        out_dir,
        "trace.csv",
        ["t", *masses, "energy", "orbit_distance"],
        (
            [repr(float(v)) for v in (t, *mass, e, d)]
            for t, mass, e, d in zip(trace.times, trace.masses, trace.energy, trace.orbit_distance)
        ),
        outputs,
    )
    print(
        f"evolve: T={trace.T}, mass drift={trace.mass_drift:.3e}, "
        f"energy drift={trace.energy_drift:.3e}, flags={trace.flags}"
    )
    return 0


def _run_scan(config: RunConfig, out_dir: str, outputs: list) -> int:
    kernel = _kernel(config)
    pairs = default_pairs(config.params.component_count, config.seed)
    result = subadditivity_scan(
        pairs,
        config.params,
        kernel,
        tol=config.solver.tol,
        max_iters=config.solver.max_iters,
        seeds_per_value=config.solver.seeds,
        base_seed=config.seed,
    )
    s = config.params.dilation_exponent
    _write_csv(
        out_dir,
        "subadditivity.csv",
        ["masses_m", "masses_t", "i_m", "i_t", "i_sum", "margin", "converged", "virial_m", "virial_t", "virial_sum"],
        (
            [
                ";".join(repr(v) for v in rec.masses_m),
                ";".join(repr(v) for v in rec.masses_t),
                *(repr(inf.value) for inf in rec.infima),
                repr(rec.margin),
                rec.converged,
                *(repr(virial_residual(inf.energy, s)) for inf in rec.infima),
            ]
            for rec in result.records + result.excluded
        ),
        outputs,
    )
    # With no converged record there is no margin to report, and no claim.
    _write_json(
        out_dir,
        "subadditivity_summary.json",
        {
            "pairs": len(pairs),
            "converged_records": len(result.records),
            "excluded_records": len(result.excluded),
            "min_margin": result.min_margin if result.records else None,
            "all_margins_positive": bool(result.records) and all(r.margin > 0 for r in result.records),
        },
        outputs,
    )
    print(
        f"scan: {len(result.records)} records, {len(result.excluded)} excluded, "
        f"min margin = {result.min_margin:.6g}"
    )
    return 0


def _run_stability(config: RunConfig, out_dir: str, outputs: list) -> int:
    kernel = _kernel(config)
    gs = _solve_reference(config, kernel)
    entries = stability_experiment(
        gs,
        [0.0, 1e-3, 1e-2],
        config.evolution.T,
        config.evolution.dt,
        kernel,
        config.params.power,
        seed=config.seed,
    )
    _write_csv(
        out_dir,
        "stability.csv",
        ["epsilon", "max_distance", "ratio", "flags"],
        ([repr(e.epsilon), repr(e.max_distance), repr(e.ratio), ";".join(sorted(e.flags))] for e in entries),
        outputs,
    )
    for e in entries:
        print(f"stability: eps={e.epsilon:g} max_distance={e.max_distance:.6g} ratio={e.ratio:.6g}")
    return 0


def _run_lemma_checks(config: RunConfig, out_dir: str, outputs: list) -> int:
    """Battery of the analytically guaranteed facts at the configured scale."""
    kernel = _kernel(config)
    params = config.params
    p = params.power
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    gs = _solve_reference(config, kernel)
    record(
        "infimum-negative",
        gs.converged and gs.energy.total < -10 * config.solver.tol,
        f"energy={gs.energy.total:.8g} converged={gs.converged}",
    )
    record(
        "multipliers-positive",
        gs.converged and bool(np.all(gs.multipliers > 0)),
        f"lambda={[round(float(v), 6) for v in gs.multipliers]}",
    )
    if gs.converged:
        worst = float(np.max(phase_factorize(gs.fields).deviation))
        record("phase-factorization", worst <= 1e-6, f"max deviation={worst:.3e}")

        comp = gs.fields.components[0]
        sc = strict_scaling_check(comp, 1.5, kernel, p)
        identity_err = abs(sc.delta_observed - (1.5**p - 1.5) * sc.pair_term)
        record(
            "scaling-gap-positive",
            sc.delta_observed > 0 and identity_err <= 1e-10 * max(abs(sc.delta_observed), 1.0),
            f"delta={sc.delta_observed:.8g}",
        )

        if params.component_count == 2:
            v1, v2 = cross_term_check(gs, kernel, p)
            record("cross-term-negative", v1 < 0 and v2 < 0, f"values=({v1:.6g}, {v2:.6g})")
    else:
        names = ["phase-factorization", "scaling-gap-positive"]
        if params.component_count == 2:
            names.append("cross-term-negative")
        for name in names:
            record(name, False, "reference solve did not converge")

    # The sample pair is (M/2, M/2): I(M) is the reference state, so only I(M/2) is solved.
    half = tuple(m / 2 for m in params.masses)
    i_half = infimum_value(
        half,
        params,
        kernel,
        tol=config.solver.tol,
        max_iters=config.solver.max_iters,
        seeds_per_value=config.solver.seeds,
        base_seed=config.seed,
    )
    i_ref = Infimum(gs.energy, gs.multipliers, (config.seed,), (gs.stop_reason,))
    sample = SubadditivityRecord(half, half, (i_half, i_half, i_ref))
    record(
        "subadditivity-sample",
        sample.converged and sample.margin > 10 * config.solver.tol,
        f"margin={sample.margin:.6g}",
    )

    if gs.converged:
        q_quarter = concentration_profile(gs.fields, [gs.fields.grid.box_length / 4])[0]
        record(
            "concentration-tight",
            q_quarter >= 0.99 * params.total_mass,
            f"Q(L/4)={q_quarter:.8g} of total={params.total_mass}",
        )
    else:
        record("concentration-tight", False, "reference solve did not converge")

    # Informational, never an entry of checks: each of those must pass.
    s = params.dilation_exponent
    virial = {"dilation_exponent": s, "residual": virial_residual(gs.energy, s)}
    # The sample pair lies on the scaling ray: I(M/2) = 2^-gamma I(M) makes its
    # margin (1 - 2^(1-gamma)) |I(M)| for every negative I(M).
    gamma = params.mass_scaling_exponent
    scaling = {
        "mass_scaling_exponent": gamma,
        "sample_margin_ratio": sample.margin / abs(i_ref.value) if i_ref.value else math.nan,
        "predicted_ratio": 1 - 2 ** (1 - gamma),
    }
    passed = all(c["passed"] for c in checks)
    report = {"passed": passed, "checks": checks, "virial": virial, "scaling": scaling}
    _write_json(out_dir, "lemma_checks.json", report, outputs)
    return 0 if passed else 1


# Each experiment's runner; the subcommand is the experiment's name unless renamed below.
EXPERIMENTS = {
    "validate": _run_validate,
    "minimize": _run_minimize,
    "evolve": _run_evolve,
    "scan-subadditivity": _run_scan,
    "stability": _run_stability,
    "lemma-checks": _run_lemma_checks,
}
_SUBCOMMAND_NAMES = {"scan-subadditivity": "scan", "lemma-checks": "check-lemmas"}


def run(config: RunConfig, config_path: str | None = None) -> int:
    """Execute one experiment; writes artifacts plus a manifest, returns exit status."""
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    outputs: list = []
    inputs = {"config_path": config_path or "<inline>"}
    if config_path and os.path.exists(config_path):
        inputs["config_sha256"] = _sha256(config_path)
    status = EXPERIMENTS[config.experiment](config, out_dir, outputs)
    _write_manifest(out_dir, config, inputs, outputs)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hartreeflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment in EXPERIMENTS:
        cmd = sub.add_parser(_SUBCOMMAND_NAMES.get(experiment, experiment))
        cmd.set_defaults(experiment=experiment)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        config = replace(load_config(args.config), experiment=args.experiment)
        if args.out is not None:
            config = replace(config, output_dir=args.out)
        if args.seed is not None:
            _check_seed(args.seed)
            config = replace(config, seed=args.seed)
        return run(config, config_path=args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
