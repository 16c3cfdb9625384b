"""hartreeflow benchmark: time to a verified result of one CLI experiment.

    python3 hfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                           [--report PATH]

One researcher runs one experiment and waits for the verified answer, so each
workload is a closed loop with a single client: the benchmark starts a fresh
process per experiment (hfbench/worker.py) that runs hartreeflow.cli.run on a
generated config, and starts the next one only when it has ended.  The seed
goes into the config's `seed` (Gaussian-init jitter, the scan's base seed and
the stability perturbations); the program receives only that config.

--trace 0 repeats the experiment while another one still fits in --seconds
(at least once) and reports the medians of wall_s and peak_rss_mb over the
repetitions.  On a shared 2-core virtual machine the same experiment ran up
to ~1.6x slower from one repetition to the next with nothing else running in
the machine; over ten runs the median moved less than the fastest
repetition did.  Before each repetition SETUPS_PER_REP set-up-only processes
run, and setup_s is the median over those and the repetitions' own set-up.

--trace 1 instead runs the experiment untraced, traced (tracer.py), and with
count-only hooks, and reports the per-layer metrics, micro timings (micro.py)
and the tracing overhead.  Outputs are checked outside the timed region
(checks.py).

Human-readable lines come first; the last line of standard output is the
JSON result.  Scratch output goes to .hfbench-work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import api_checks, artifact_checks, manifest_hashes, reference_state
from micro import micro_timings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".hfbench-work")

SETUPS_PER_REP = 1
DEADLINE_S = 160.0  # for the workers; a run must end within 180 s

# Inputs of configs/reference.json when the benchmark was defined; kept here so
# that a change to the shipped config does not silently change the workload.
REFERENCE_1D = {
    "space_dim": 1,
    "component_count": 2,
    "power": 2.0,
    "kernel_exponent": 0.5,
    "masses": [1.0, 1.0],
    "box_length": 40.0,
    "points_per_dim": 256,
}
SOLVER = {"tol": 1e-6, "max_iters": 300000, "seeds": 2}

# Why each workload is here: see BENCHMARK.json.  Each repetition is sized so
# that several fit in one run: the scan solves each infimum from one start
# (12 solves) and the stability run evolves to T = 10 (3 x 10,000 steps).
WORKLOADS = {
    "scan-1d": {
        "experiment": "scan-subadditivity",
        "params": REFERENCE_1D,
        "solver": dict(SOLVER, seeds=1),
        "evolution": {"T": 5.0, "dt": 0.001},
    },
    "stability-1d": {
        "experiment": "stability",
        "params": REFERENCE_1D,
        "solver": SOLVER,
        "evolution": {"T": 10.0, "dt": 0.001},
    },
    "lemmas-2d": {
        "experiment": "lemma-checks",
        "params": dict(REFERENCE_1D, space_dim=2, kernel_exponent=1.0, points_per_dim=64),
        "solver": SOLVER,
        "evolution": {"T": 5.0, "dt": 0.001},
    },
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "checks_passed_frac": "1"}
LAYER_UNITS = {
    "params.validate_s": "s",
    "cli.config_s": "s",
    "hartree.kernel_build_s": "s",
    "grid.fft_calls": "count",
    "grid.fft_s": "s",
    "grid.fft_us_per_call": "us",
    "grid.fft_points_per_call": "count",
    "grid.fft_bytes": "B_computed",
    "minimize.solves": "count",
    "minimize.iters": "count",
    "minimize.iters_max": "count",
    "minimize.us_per_iter": "us",
    "minimize.fft_per_iter": "1",
    "minimize.converged_frac": "1",
    "evolve.steps": "count",
    "evolve.us_per_step": "us",
    "evolve.fft_per_step": "1",
    "evolve.record_s": "s",
    "evolve.orbit_distance_calls": "count",
    "evolve.mass_drift_max": "1",
    "evolve.energy_drift_max": "1",
    "hartree.total_energy_calls": "count",
    "hartree.total_energy_s": "s",
    "hartree.energy_gradient_calls": "count",
    "hartree.energy_gradient_s": "s",
    "hartree.pair_interaction_calls": "count",
    "hartree.pair_interaction_s": "s",
    "analysis.infima": "count",
    "analysis.infimum_s": "s",
    "analysis.infimum_s_max": "s",
    "analysis.scan_self_s": "s",
    "analysis.pool_efficiency": "1",
    "analysis.stability_s": "s",
    "analysis.concentration_s": "s",
    "cli.run_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "grid.fft_us": "us",
    "hartree.convolve_us": "us",
    "hartree.energy_grad_us": "us",
    "evolve.step_us": "us",
    "evolve.orbit_distance_us": "us",
    "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _config_seed(seed: int) -> int:
    # numpy generators need a nonnegative seed; any --seed value maps to one.
    return seed % 2**32


class Workload:
    """Runs the worker processes of one workload in its own scratch directory."""

    def __init__(self, name: str, deadline: float):
        self.name = name
        self.spec = WORKLOADS[name]
        self.deadline = deadline
        self.dir = os.path.join(WORK, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def config(self, tag: str, seed: int) -> str:
        path = os.path.join(self.dir, f"{tag}.json")
        raw = {
            "params": self.spec["params"],
            "solver": self.spec["solver"],
            "evolution": self.spec["evolution"],
            "experiment": self.spec["experiment"],
            "output_dir": os.path.join(self.dir, tag),
            "seed": _config_seed(seed),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2)
        return path

    def worker(self, mode: str, tag: str, seed: int) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode, "--config", self.config(tag, seed)]
        if mode == "trace":
            cmd += ["--spans", os.path.join(self.dir, f"{tag}.spans.json")]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{self.name}: out of time before {mode} run {tag}")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.name}: {mode} run {tag} exceeded the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{self.name}: {mode} run {tag} failed:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["hartreeflow_file"].startswith(SRC + os.sep):
            raise BenchError(f"hartreeflow imported from {result['hartreeflow_file']}, not from {SRC}")
        result["tag"] = tag
        result["out_dir"] = os.path.join(self.dir, tag)
        return result

    def gate(self, run: dict) -> list:
        return artifact_checks(self.spec["experiment"], run["out_dir"], run["status"])

    def reference_checks(self, seed: int, micro: bool):
        """Public-API cross-check on the reference state (and micro timings)."""
        from hartreeflow import SystemParams

        p = self.spec["params"]
        params = SystemParams(**dict(p, masses=tuple(p["masses"])))
        solver = self.spec["solver"]
        gs, kernel = reference_state(params, solver["tol"], solver["max_iters"], _config_seed(seed))
        checks = api_checks(gs, kernel, params.power, solver["tol"])
        timings = {}
        if micro:
            timings = micro_timings(gs, kernel, params.power, self.spec["evolution"]["dt"])
        return checks, timings


def measure_end_to_end(wl: Workload, seed: int, seconds: float) -> dict:
    setups, reps, checks = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for _ in range(SETUPS_PER_REP):
            setups.append(wl.worker("setup", f"setup{len(setups)}", seed)["setup_s"])
        run = wl.worker("plain", f"rep{len(reps)}", seed)
        last = time.monotonic() - t0
        reps.append(run)
        setups.append(run["setup_s"])
        checks += wl.gate(run)
        if time.monotonic() - start + last > seconds:
            break
    api, _ = wl.reference_checks(seed, micro=False)
    checks += api
    passed = sum(ok for _, ok, _ in checks)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "checks_passed_frac": passed / len(checks),
    }
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return {"metrics": metrics, "units": END_TO_END_UNITS, "checks": checks, "samples": samples}


def measure_layers(wl: Workload, seed: int) -> dict:
    plain = wl.worker("plain", "plain", seed)
    traced = wl.worker("trace", "trace", seed)
    counted = wl.worker("count", "count", seed)
    checks = wl.gate(plain) + wl.gate(traced) + wl.gate(counted)

    layers = traced["layers"]
    mismatched = {k: (layers[k], v) for k, v in counted["counts"].items() if layers[k] != v}
    checks.append(("self:counts-match-untraced", not mismatched, f"traced vs count-only: {mismatched or 'equal'}"))
    errors = traced["nesting_errors"]
    checks.append(("self:spans-nested", not errors, "; ".join(errors[:5]) or f"{traced['spans']} spans"))
    same = manifest_hashes(plain["out_dir"]) == manifest_hashes(traced["out_dir"])
    checks.append(("self:traced-artifacts-identical", same, "artifact hashes of traced vs untraced run"))
    if wl.name == "scan-1d":
        other = wl.worker("count", "count-next-seed", seed + 1)
        checks += wl.gate(other)
        a, b = counted["counts"]["minimize.iters"], other["counts"]["minimize.iters"]
        checks.append(("self:seed-reaches-program", a != b, f"minimize.iters {a} (seed) vs {b} (seed+1)"))

    api, micro = wl.reference_checks(seed, micro=True)
    checks += api
    metrics = dict(layers)
    metrics.update(micro)
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.spans"] = traced["spans"]
    if set(metrics) != set(LAYER_UNITS):
        raise BenchError(f"per-layer metrics differ from LAYER_UNITS: {sorted(set(metrics) ^ set(LAYER_UNITS))}")
    return {"metrics": metrics, "units": LAYER_UNITS, "checks": checks}


# -- context --------------------------------------------------------------------


def _git_commit() -> str | None:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout itself is not a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_stats() -> tuple[int, str]:
    """Line count and content hash of the package sources."""
    lines, digest = 0, hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return lines, digest.hexdigest()


def context(seeds: list, seconds: float, trace: int) -> dict:
    import numpy
    import hartreeflow

    lines, src_hash = _src_stats()
    return {
        "hartreeflow": hartreeflow.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": src_hash,
        "src_lines": lines,
        "seeds": seeds,
        "config_seeds": [_config_seed(s) for s in seeds],
        "seconds": seconds,
        "trace": trace,
    }


# -- entry point ----------------------------------------------------------------


def _print_table(name: str, result: dict) -> None:
    for metric, value in result["metrics"].items():
        print(f"{name:13s} {metric:32s} {value:>16.6g} {result['units'][metric]}")
    checks = result["checks"]
    failed = [c for c in checks if not c[1]]
    print(f"{name:13s} {'failed_frac':32s} {len(failed) / len(checks):>16.6g} 1"
          f"   ({len(failed)} of {len(checks)} checks failed)")
    for check_name, _, detail in failed:
        print(f"{name:13s} FAILED {check_name}: {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hartreeflow", "__init__.py")):
        print(f"error: no hartreeflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            wl = Workload(name, time.monotonic() + DEADLINE_S)
            if args.trace:
                results[name] = measure_layers(wl, args.seed)
            else:
                results[name] = measure_end_to_end(wl, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    seeds = [args.seed] + ([args.seed + 1] if args.trace and "scan-1d" in names else [])
    ctx = context(seeds, args.seconds, args.trace)
    for name, result in results.items():
        _print_table(name, result)
    print("context " + json.dumps(ctx, sort_keys=True))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"context": ctx, "workloads": results}, fh, indent=2)
            fh.write("\n")

    checks = [c for r in results.values() for c in r["checks"]]
    failed = sum(not ok for _, ok, _ in checks)
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": result["units"][metric]}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
