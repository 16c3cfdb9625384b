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

Subcommands: validate | minimize | scan | stability | check-lemmas, each
taking --config PATH and optional --out DIR, --seed N.  check-lemmas exits
nonzero if any assertion fails; an unconverged reference solve fails every
entry, computing none.  stability exits 1 on an unconverged reference, else
writes stability.csv and trace.csv, every member's samples.
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
    STABILITY_RECORD_EVERY,
    concentration_profile,
    cross_term_check,
    default_pairs,
    infimum_value,
    stability_experiment,
    strict_scaling_check,
    subadditivity_scan,
)
from .evolve import step_count
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


# The stability experiment's perturbation sizes; 0 is the unperturbed minimiser.
STABILITY_EPSILONS = (0.0, 1e-3, 1e-2)


def _check_memory(config: RunConfig, steps: int) -> None:
    """Refuse a config whose arrays exceed physical memory, before any array exists.

    Every experiment holds a complex field stack of 16 m n^N bytes, and
    stability a trace of 1 + ceil(steps / STABILITY_RECORD_EVERY) samples,
    each a time and, per perturbation size, m masses, an energy and an orbit
    distance in float64; every config is sized as if it ran stability.
    Sizes are compared in log2, so that n^N is never formed.
    """
    try:
        available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return  # the platform does not report its memory size
    params, evolution, m = config.params, config.evolution, config.params.component_count
    samples = 1 + -(-steps // STABILITY_RECORD_EVERY)
    needs = {
        f"config.params.points_per_dim = {params.points_per_dim} with space_dim = {params.space_dim} is too "
        "large: one field stack": math.log2(16 * m) + params.space_dim * math.log2(params.points_per_dim),
        f"config.evolution: T = {evolution.T} with dt = {evolution.dt} is too long: the stability trace of "
        f"{samples} samples": math.log2(8 * samples * (1 + len(STABILITY_EPSILONS) * (m + 2))),
    }
    for what, needed_log2 in needs.items():
        if needed_log2 > math.log2(available):
            raise ConfigError(
                f"{what} needs 2^{needed_log2:.1f} bytes, more than the {available:.3g} bytes of memory on this machine"
            )


def parse_config(raw: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, then apply the checks that span fields."""
    config = _from_json(RunConfig, raw, "config")
    try:
        steps = step_count(config.evolution.T, config.evolution.dt)
    except ValueError as exc:
        raise ConfigError(f"config.evolution: {exc}") from None
    _check_memory(config, steps)
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
    if not gs.converged:
        print(f"error: stability needs a converged reference solve; it stopped with {gs.stop_reason}", file=sys.stderr)
        return 1
    entries = stability_experiment(
        gs,
        STABILITY_EPSILONS,
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
    masses = [f"mass_{j + 1}" for j in range(config.params.component_count)]
    _write_csv(
        out_dir,
        "trace.csv",
        ["epsilon", "t", *masses, "energy", "orbit_distance"],
        (
            [repr(float(v)) for v in (e.epsilon, t, *mass, energy, d)]
            for e in entries
            for t, mass, energy, d in zip(e.trace.times, e.trace.masses, e.trace.energy, e.trace.orbit_distance)
        ),
        outputs,
    )
    for e in entries:
        print(f"stability: eps={e.epsilon:g} max_distance={e.max_distance:.6g} ratio={e.ratio:.6g}")
    return 0


def _run_lemma_checks(config: RunConfig, out_dir: str, outputs: list) -> int:
    """Battery of the analytically guaranteed facts at the configured scale."""
    kernel = _kernel(config)
    params = config.params
    p, solver = params.power, config.solver
    gs = _solve_reference(config, kernel)
    sample_margin = math.nan

    def phase():
        worst = float(np.max(phase_factorize(gs.fields).deviation))
        return worst <= 1e-6, f"max deviation={worst:.3e}"

    def scaling_gap():
        delta, pair_term = strict_scaling_check(gs.fields.components[0], 1.5, kernel, p)
        identity_err = abs(delta - (1.5**p - 1.5) * pair_term)
        return delta > 0 and identity_err <= 1e-10 * max(abs(delta), 1.0), f"delta={delta:.8g}"

    def cross_term():
        v1, v2 = cross_term_check(gs, kernel, p)
        return v1 < 0 and v2 < 0, f"values=({v1:.6g}, {v2:.6g})"

    def subadditivity_sample():
        # The sample pair is (M/2, M/2): I(M) is the reference state, so only I(M/2) is solved.
        nonlocal sample_margin
        half = tuple(m / 2 for m in params.masses)
        i_half = infimum_value(
            half, params, kernel, tol=solver.tol, max_iters=solver.max_iters, seeds_per_value=solver.seeds,
            base_seed=config.seed,
        )
        sample_margin = 2 * i_half.value - gs.energy.total
        return i_half.converged and sample_margin > 10 * solver.tol, f"margin={sample_margin:.6g}"

    def concentration():
        q_quarter = concentration_profile(gs.fields, [gs.fields.grid.box_length / 4])[0]
        return q_quarter >= 0.99 * params.total_mass, f"Q(L/4)={q_quarter:.8g} of total={params.total_mass}"

    entries = [
        (
            "infimum-negative",
            lambda: (gs.energy.total < -10 * solver.tol, f"energy={gs.energy.total:.8g} converged={gs.converged}"),
        ),
        (
            "multipliers-positive",
            lambda: (np.all(gs.multipliers > 0), f"lambda={[round(float(v), 6) for v in gs.multipliers]}"),
        ),
        ("phase-factorization", phase),
        ("scaling-gap-positive", scaling_gap),
        *([("cross-term-negative", cross_term)] if params.component_count == 2 else []),
        ("subadditivity-sample", subadditivity_sample),
        ("concentration-tight", concentration),
    ]
    checks = []
    for name, check in entries:
        passed, detail = check() if gs.converged else (False, "reference solve did not converge")
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")

    # Informational, never an entry of checks: each of those must pass.
    s = params.dilation_exponent
    virial = {"dilation_exponent": s, "residual": virial_residual(gs.energy, s)}
    # The sample pair lies on the scaling ray: I(M/2) = 2^-gamma I(M) makes its
    # margin (1 - 2^(1-gamma)) |I(M)| for every negative I(M).
    gamma = params.mass_scaling_exponent
    scaling = {
        "mass_scaling_exponent": gamma,
        "sample_margin_ratio": sample_margin / abs(gs.energy.total) if gs.energy.total else math.nan,
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
    "scan-subadditivity": _run_scan,
    "stability": _run_stability,
    "lemma-checks": _run_lemma_checks,
}
_SUBCOMMAND_NAMES = {"scan-subadditivity": "scan", "lemma-checks": "check-lemmas"}


def run(config: RunConfig, config_path: str | None = None) -> int:
    """Execute one experiment; writes artifacts plus a manifest, returns exit status."""
    out_dir = config.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"cannot create output directory {out_dir}: a file is in the way") from None
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
