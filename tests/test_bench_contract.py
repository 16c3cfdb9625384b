"""The benchmark's hooks and imports still fit the program.

hfbench/tracer.py patches module bindings by name and reads result fields
(iterations, converged) of what it wraps; a program change that renames a
binding or hides the work of a solve breaks the traced benchmark run
without failing any other test.  These tests install hfbench's own Tracer
and Counter, read-only, around in-process runs of tiny experiments, and run
hfbench's artifact checks, the benchmark's gate, on what those runs wrote.
hfbench/checks.py and hfbench/micro.py import public names of the package
(Field, convolve_density, el_residual, h1_norm_sq, ...); one test runs both
on a small state, so that deleting such a name fails here too.  Another
reads every `from hartreeflow... import` of hfbench/*.py without running it
(run.py imports SystemParams only in its full benchmark run).
"""

import ast
import glob
import importlib
import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import hartreeflow as hf
from hartreeflow import analysis, cli
from hartreeflow.evolve import step_count

HFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "hfbench")
sys.path.insert(0, HFBENCH)
import checks  # noqa: E402
import micro  # noqa: E402
from tracer import Counter, Tracer, layer_metrics  # noqa: E402

PARAMS = {
    "space_dim": 1,
    "component_count": 2,
    "power": 2.0,
    "kernel_exponent": 0.5,
    "masses": [1.0, 1.0],
    "box_length": 40.0,
    "points_per_dim": 256,
}


def _config(tmp_path, experiment, tag, params=PARAMS):
    return cli.parse_config(
        {
            "params": params,
            "solver": {"tol": 1e-6, "max_iters": 5000, "seeds": 1},
            "evolution": {"T": 0.1, "dt": 1e-3},
            "experiment": experiment,
            "output_dir": str(tmp_path / tag),
            "seed": 5,
        }
    )


def _assert_gate_passes(experiment, out_dir) -> None:
    """hfbench's own artifact checks, which gate the benchmark, pass on a run's outputs."""
    results = checks.artifact_checks(experiment, str(out_dir), 0)
    assert len(results) > 1 and [(name, detail) for name, passed, detail in results if not passed] == []


def _traced(tmp_path, experiment, params=PARAMS) -> list:
    """The spans of a traced run."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            config = _config(tmp_path, experiment, "traced", params)
        with tracer.span("cli.run", "hartreeflow.cli"):
            assert cli.run(config) == 0
    finally:
        tracer.uninstall()
    assert tracer.nesting_errors() == []
    return tracer.spans


def _counted(tmp_path, experiment, params=PARAMS) -> dict:
    counter = Counter()
    counter.install()
    try:
        assert cli.run(_config(tmp_path, experiment, "counted", params)) == 0
    finally:
        counter.uninstall()
    counts = counter.counts()
    assert json.loads(json.dumps(counts)) == counts
    return counts


@pytest.mark.parametrize("hooks", [Tracer, Counter])
def test_every_patched_name_exists(hooks):
    solve, infimum = analysis.ground_state, analysis.infimum_value
    params = hf.SystemParams(**{**PARAMS, "component_count": 1, "masses": (1.0,)})
    kernel = hf.build_kernel(hf.grid_for(params), params.kernel_exponent)
    installed = hooks()
    installed.install()
    try:
        assert analysis.ground_state is not solve
        # Tracer wraps infimum_value by name; Counter leaves it and counts the solve inside
        assert (analysis.infimum_value is not infimum) == (hooks is Tracer)
        assert getattr(analysis.infimum_value, "__wrapped__", infimum) is infimum
        result = analysis.infimum_value((1.0,), params, kernel, solver=hf.SolverConfig(max_iters=5000, seeds=1))
    finally:
        installed.uninstall()
    assert analysis.ground_state is solve and analysis.infimum_value is infimum
    assert isinstance(result, hf.Infimum) and result.converged
    if hooks is Tracer:
        assert [s.name for s in installed.spans[:2]] == ["analysis.infimum_value", "minimize.ground_state"]
    else:
        assert installed.counts()["minimize.iters"] > 0


# lemmas-2d's experiment at its grid spacing on a smaller box (n=32, L=20,
# where every lemma check passes): its solves take the 2D real transforms,
# and its checks run phase_factorize and the scaling, cross-term and
# concentration checks.
PARAMS_2D = {**PARAMS, "space_dim": 2, "kernel_exponent": 1.0, "box_length": 20.0, "points_per_dim": 32}


@pytest.mark.parametrize(
    "experiment, params",
    [
        pytest.param("minimize", PARAMS, id="minimize"),
        pytest.param("scan-subadditivity", PARAMS, id="scan-subadditivity"),
        pytest.param("stability", PARAMS, id="stability"),
        pytest.param("lemma-checks", PARAMS_2D, id="lemma-checks-2d"),
    ],
)
def test_traced_and_counted_runs_agree(tmp_path, experiment, params):
    spans = _traced(tmp_path, experiment, params)
    layers = layer_metrics(spans)
    counts = _counted(tmp_path, experiment, params)
    for tag in ("traced", "counted"):
        _assert_gate_passes(experiment, tmp_path / tag)
    assert layers["minimize.iters"] == counts["minimize.iters"] > 0
    # The tracer counts each step in the innermost open span; every step of
    # every experiment lies in an evolve.evolve span, inside the metric.
    assert sum(s.steps for s in spans) == layers["evolve.steps"] == counts["evolve.steps"]
    if experiment == "stability":
        assert counts["evolve.steps"] == step_count(0.1, 1e-3) > 0


def test_scan_iterations_are_the_solo_iterations(tmp_path):
    counts = _counted(tmp_path, "scan-subadditivity")
    config = _config(tmp_path, "scan-subadditivity", "solo")
    kernel = hf.build_kernel(hf.grid_for(config.params), config.params.kernel_exponent)
    solver = config.solver
    pairs = hf.default_pairs(config.params.component_count, config.seed)
    keys = dict.fromkeys(analysis._infimum_key(v) for mv, tv in pairs for v in (mv, tv, np.add(mv, tv)))
    solo = 0
    for key in keys:
        problem = replace(config.params, component_count=len(key), masses=key)
        seed = analysis._stable_seed(key, config.seed, 0)
        solo += hf.ground_state(problem, kernel, tol=solver.tol, max_iters=solver.max_iters, seed=seed).iterations
    assert counts["minimize.iters"] == solo


def test_reference_checks_and_micro_timings_run(monkeypatch):
    params = hf.SystemParams(**{**PARAMS, "masses": (1.0, 1.0), "box_length": 20.0, "points_per_dim": 64})
    gs, kernel = checks.reference_state(params, tol=1e-6, max_iters=5000, seed=5)
    results = checks.api_checks(gs, kernel, params.power, 1e-6)
    assert [name for name, passed, _ in results if not passed] == []
    monkeypatch.setattr(micro, "BATCHES", 1)
    monkeypatch.setattr(micro, "BATCH_SECONDS", 1e-4)
    timings = micro.micro_timings(gs, kernel, params.power, 1e-3)
    assert len(timings) == 5
    assert all(np.isfinite(us) and us > 0 for us in timings.values())


def test_every_name_hfbench_imports_exists():
    imported = []
    for path in sorted(glob.glob(os.path.join(HFBENCH, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hartreeflow":
                imported += [(os.path.basename(path), node.module, alias.name) for alias in node.names]
    assert ("run.py", "hartreeflow", "SystemParams") in imported
    missing = [entry for entry in imported if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []
