import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hartreeflow as hf
from hartreeflow import cli
from hartreeflow.cli import ConfigError, EvolutionConfig, RunConfig, SolverConfig, main, parse_config
from hartreeflow.evolve import NanAbortError
from hartreeflow.params import InvalidParameterError

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.json")
PARAM_KEYS = ("space_dim", "component_count", "power", "kernel_exponent", "masses", "box_length", "points_per_dim")


def base_config(**overrides):
    cfg = {
        "params": {
            "space_dim": 1,
            "component_count": 2,
            "power": 2.0,
            "kernel_exponent": 0.5,
            "masses": [1.0, 1.0],
            "box_length": 40.0,
            "points_per_dim": 64,
        },
        "solver": {"tol": 1e-4, "max_iters": 50000, "seeds": 1},
        "evolution": {"T": 0.05, "dt": 1e-3},
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def lemmas_2d_config(tmp_path, seed=0):
    """The inputs of the benchmark's 2D lemma-check workload, written to tmp_path."""
    cfg = base_config(seed=seed, output_dir=str(tmp_path / "out"))
    cfg["params"].update({"space_dim": 2, "kernel_exponent": 1.0, "points_per_dim": 64})
    cfg["solver"] = {"tol": 1e-6, "max_iters": 300000, "seeds": 2}
    return write_config(tmp_path, cfg)


def lemma_checks(tmp_path):
    report = json.loads((tmp_path / "out" / "lemma_checks.json").read_text())
    return {c["name"]: c for c in report["checks"]}


def ramped(gs):
    """gs with its fields turned by the phase ramp exp(2 pi i x_1 / L)."""
    g = gs.fields.grid
    ramp = np.exp(2j * np.pi * g.coordinate_arrays[0] / g.box_length)
    return replace(gs, fields=hf.MultiField(g, gs.fields.data * ramp))


def far_apart(gs):
    """gs with component 1 replaced, at its mass, by a narrow Gaussian half a box from the origin."""
    g = gs.fields.grid
    bump = np.roll(np.exp(-((g.radius / (2 * g.spacing)) ** 2)), g.points_per_dim // 2, axis=g.spatial_axes)
    data = gs.fields.data.copy()
    data[0] = bump * np.sqrt(hf.grid.norms_sq(g, data[:1])[0] / hf.grid.norms_sq(g, bump[None])[0])
    return replace(gs, fields=hf.MultiField(g, data))


def spread(gs):
    """gs with every component replaced by the constant field of its mass."""
    g = gs.fields.grid
    masses = hf.grid.norms_sq(g, gs.fields.data)
    constant = np.sqrt(masses / g.box_length**g.space_dim)
    return replace(gs, fields=hf.MultiField(g, np.ones_like(gs.fields.data) * constant[:, None]))


# A converged reference state, altered so that one entry's claim is false.
# scaling-gap-positive has none: its delta = (1.5^p - 1.5) F(u, u) is positive
# for every nonzero first component at p > 1.
NEGATIVE_CONTROLS = {
    "infimum-negative": lambda gs: replace(gs, energy=hf.EnergyBreakdown(2.0, 1.0)),
    "multipliers-positive": lambda gs: replace(gs, multipliers=-gs.multipliers),
    "phase-factorization": ramped,
    "cross-term-negative": far_apart,
    # I(M) = 0 makes the sample margin 2 I(M/2) < 0
    "subadditivity-sample": lambda gs: replace(gs, energy=hf.EnergyBreakdown(1.0, 1.0)),
    "concentration-tight": spread,
}


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, {"params": base_config()["params"]})
        config = hf.load_config(path)
        assert config.solver.tol == 1e-6
        assert config.solver.max_iters == 300_000
        assert config.solver.seeds == 2
        assert config.evolution.T == 5.0
        assert config.experiment == "validate"
        assert config.seed == 0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config()
        cfg["unknown_option"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            hf.load_config(write_config(tmp_path, cfg))
        cfg = base_config()
        cfg["params"]["extra"] = 2.0
        with pytest.raises(ConfigError, match="unknown key"):
            hf.load_config(write_config(tmp_path, cfg))

    def test_assumption_violation_names_clause(self, tmp_path):
        cfg = base_config()
        cfg["params"].update({"space_dim": 3, "power": 3.0, "kernel_exponent": 1.0})
        with pytest.raises(ConfigError, match="h0"):
            hf.load_config(write_config(tmp_path, cfg))

    def test_parse_error_carries_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "params": {,}\n}')
        with pytest.raises(ConfigError, match="line 2"):
            hf.load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            hf.load_config(str(tmp_path / "absent.json"))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(base_config(experiment="frobnicate"))

    def test_wrong_type_rejected(self):
        cfg = base_config()
        cfg["params"]["points_per_dim"] = "many"
        with pytest.raises(ConfigError, match="wrong type"):
            parse_config(cfg)

    @pytest.mark.parametrize("key", PARAM_KEYS)
    def test_missing_params_key_named(self, key):
        cfg = base_config()
        del cfg["params"][key]
        with pytest.raises(ConfigError, match=f"missing key.*{key}"):
            parse_config(cfg)

    def test_missing_params_named(self):
        with pytest.raises(ConfigError, match="missing key.*params"):
            parse_config({"seed": 1})

    def test_reference_round_trips_through_asdict(self):
        config = hf.load_config(REFERENCE)
        raw = json.loads(json.dumps(asdict(config)))
        assert parse_config(raw) == config
        assert type(parse_config(raw).params.masses) is tuple

    def test_docstring_example_shows_the_defaults(self):
        doc = cli.__doc__
        config = parse_config(json.loads(doc[doc.index("{") : doc.rindex("}") + 1]))
        assert config.solver == SolverConfig()
        assert config.evolution == EvolutionConfig()
        defaults = {f.name: f.default for f in fields(RunConfig)}
        assert (config.experiment, config.output_dir, config.seed) == (
            defaults["experiment"],
            defaults["output_dir"],
            defaults["seed"],
        )


# Every JSON scalar: null, true/false, an integer (past int64 and past the
# float range included), any float (NaN and the infinities included) and a
# short string.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2**70, 10**400, -(10**400)]), st.floats(),
    st.text(max_size=2),
)


class TestConfigRecords:
    """Each record checks its own values: parse_config and a record built in Python refuse alike."""

    @settings(max_examples=300, deadline=None)
    @given(
        solver=st.dictionaries(st.sampled_from(["tol", "max_iters", "seeds"]), JSON_SCALARS),
        evolution=st.dictionaries(st.sampled_from(["T", "dt"]), JSON_SCALARS),
        seed=JSON_SCALARS,
    )
    def test_parse_config_refuses_exactly_what_the_records_refuse(self, solver, evolution, seed):
        params = parse_config(base_config()).params
        try:
            parse_config(base_config(solver=solver, evolution=evolution, seed=seed))
        except ConfigError:
            parsed = False
        else:
            parsed = True
        try:
            RunConfig(params, SolverConfig(**solver), EvolutionConfig(**evolution), seed=seed)
        except InvalidParameterError:
            built = False
        else:
            built = True
        assert parsed == built

    def test_unknown_experiment_refused_before_the_output_dir(self, tmp_path):
        params = parse_config(base_config()).params
        with pytest.raises(InvalidParameterError, match="unknown experiment 'nope'"):
            hf.run(RunConfig(params, experiment="nope", output_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    def test_zero_seeds_refused_before_the_scan(self, tmp_path):
        params = parse_config(base_config()).params
        with pytest.raises(InvalidParameterError, match="seeds must be positive, got 0"):
            hf.run(RunConfig(params, SolverConfig(seeds=0), experiment="scan-subadditivity",
                             output_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    def test_zero_dt_refused_before_the_reference_solve(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ground_state", lambda *a, **kw: pytest.fail("solved"))
        params = parse_config(base_config()).params
        with pytest.raises(InvalidParameterError, match="dt must be finite and positive, got 0.0"):
            hf.run(RunConfig(params, evolution=EvolutionConfig(dt=0.0), experiment="stability",
                             output_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    def test_negative_seed_refused_by_construction_and_replace(self, tmp_path):
        params = parse_config(base_config()).params
        with pytest.raises(InvalidParameterError, match="config.seed must be non-negative, got -1"):
            RunConfig(params, experiment="minimize", output_dir=str(tmp_path / "out"), seed=-1)
        config = RunConfig(params, experiment="minimize", output_dir=str(tmp_path / "out"))
        with pytest.raises(InvalidParameterError, match="config.seed must be non-negative, got -1"):
            replace(config, seed=-1)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["minimize", "scan", "check-lemmas", "stability"])
    def test_every_solve_runs_at_the_config_solver(self, tmp_path, monkeypatch, capsys, command):
        # tol, max_iters and seeds all off their defaults: a path that dropped
        # config.solver would solve at SolverConfig() and show it here
        solver = {"tol": 2e-4, "max_iters": 40000, "seeds": 3}
        assert all(solver[k] != v for k, v in asdict(SolverConfig()).items())
        loops, runs = [], []
        loop, stacked = hf.minimize._minimize, hf.analysis.ground_state

        def loop_spy(state, masses, tol, max_iters):
            loops.append((tol, max_iters))
            return loop(state, masses, tol, max_iters)

        def stacked_spy(problems, *args, **kwargs):
            runs.extend(q.masses for q in problems)
            return stacked(problems, *args, **kwargs)

        monkeypatch.setattr(hf.minimize, "_minimize", loop_spy)
        monkeypatch.setattr(hf.analysis, "ground_state", stacked_spy)
        cfg = base_config(solver=solver, output_dir=str(tmp_path / "out"))
        assert main([command, "--config", write_config(tmp_path, cfg)]) in (0, 1)
        assert loops and set(loops) == {(solver["tol"], solver["max_iters"])}
        if command in ("scan", "check-lemmas"):
            assert runs and all(runs.count(key) == solver["seeds"] for key in runs)
        else:
            assert not runs
        capsys.readouterr()


class TestRun:
    def test_validate_exit_zero_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output_dir=str(out)))
        assert main(["validate", "--config", path]) == 0
        printed = capsys.readouterr().out
        assert "h0.weak-index" in printed and "margin" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["hartreeflow"] == hf.__version__
        assert "validation.json" in manifest["outputs"]

    def test_module_entry_point(self, tmp_path):
        # python -m hartreeflow runs the command line, with no warning on the way
        src = os.path.abspath(os.path.join(os.path.dirname(hf.__file__), os.pardir))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hartreeflow", "validate", "--config", REFERENCE, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "h0.weak-index" in proc.stdout
        assert "validation.json" in json.loads((out / "manifest.json").read_text())["outputs"]

    def test_minimize_writes_snapshot_and_sidecar(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output_dir=str(out)))
        assert main(["minimize", "--config", path]) == 0
        assert (out / "ground_state.chfld").exists()
        sidecar = json.loads((out / "ground_state.json").read_text())
        assert sidecar["converged"] is True
        assert sidecar["energy"]["total"] < 0
        mf = hf.read_snapshot(out / "ground_state.chfld")
        assert mf.m == 2

    def test_deterministic_outputs(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["minimize", "--config", path, "--out", str(out1)]) == 0
        assert main(["minimize", "--config", path, "--out", str(out2)]) == 0
        for name in ("ground_state.chfld", "ground_state.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_nothing_but_seed(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "seeded"
        assert main(["minimize", "--config", path, "--out", str(out), "--seed", "11"]) == 0
        sidecar = json.loads((out / "ground_state.json").read_text())
        assert sidecar["seed"] == 11

    def test_stability_writes_trace(self, tmp_path):
        # stability writes every member's trace, in epsilon order: T = 0.05 and
        # dt = 1e-3 take 50 steps, sampled every 25; each member's largest
        # distance is its max_distance in stability.csv
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output_dir=str(out)))
        assert main(["stability", "--config", path]) == 0
        with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["epsilon", "t", "mass_1", "mass_2", "energy", "orbit_distance"]
        epsilons = cli.STABILITY_EPSILONS
        assert [row[:2] for row in rows] == [[repr(eps), repr(k * 1e-3)] for eps in epsilons for k in (0, 25, 50)]
        with open(out / "stability.csv", newline="", encoding="utf-8") as fh:
            entries = list(csv.DictReader(fh))
        for eps, entry in zip(epsilons, entries):
            assert entry["max_distance"] == repr(max(float(row[-1]) for row in rows if row[0] == repr(eps)))

    def test_stability_flags_only_the_drifting_member(self, tmp_path, monkeypatch):
        # the largest epsilon's energy doubles at its last sample, a drift far
        # beyond 10%: its row reads unstable, the other rows are empty
        real = cli.stability_experiment

        def last_drifts(*args, **kwargs):
            *kept, last = real(*args, **kwargs)
            energy = last.trace.energy.copy()
            energy[-1] *= 2
            return (*kept, replace(last, trace=replace(last.trace, energy=energy)))

        monkeypatch.setattr(cli, "stability_experiment", last_drifts)
        out = tmp_path / "out"
        assert main(["stability", "--config", write_config(tmp_path, base_config(output_dir=str(out)))]) == 0
        with open(out / "stability.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["flags"] for row in rows] == ["", "", "unstable"]

    @pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
    def test_output_dir_holds_exactly_the_manifest_outputs(self, tmp_path, experiment):
        # a runner that writes a file without registering it for the manifest fails here
        cfg = base_config(experiment=experiment, output_dir=str(tmp_path / "out"))
        if experiment == "scan-subadditivity":  # one component: 3 pairs, not 56
            cfg["params"].update({"component_count": 1, "masses": [1.0]})
        assert cli.run(parse_config(cfg)) in (0, 1)
        out = tmp_path / "out"
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs and sorted(os.listdir(out)) == sorted([*outputs, "manifest.json"])
        for name, digest in outputs.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_scan_single_component(self, tmp_path):
        cfg = base_config()
        cfg["params"].update({"component_count": 1, "masses": [1.0]})
        out = tmp_path / "out"
        cfg["output_dir"] = str(out)
        path = write_config(tmp_path, cfg)
        assert main(["scan", "--config", path]) == 0
        summary = json.loads((out / "subadditivity_summary.json").read_text())
        assert summary["all_margins_positive"] is True
        assert summary["excluded_records"] == 0

    def test_scan_without_converged_records_claims_nothing(self, tmp_path, capsys):
        # a budget of 2 iterations converges no infimum: every record is excluded
        cfg = base_config()
        cfg["solver"]["max_iters"] = 2
        out = tmp_path / "out"
        cfg["output_dir"] = str(out)
        path = write_config(tmp_path, cfg)
        assert main(["scan", "--config", path]) == 0
        assert "0 records, 56 excluded" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        summary = json.loads((out / "subadditivity_summary.json").read_text(), parse_constant=reject)
        assert summary["converged_records"] == 0 and summary["excluded_records"] == 56
        assert summary["min_margin"] is None
        assert summary["all_margins_positive"] is False

    def test_scan_csv_carries_virial_residuals(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output_dir=str(out)))
        assert main(["scan", "--config", path]) == 0
        with open(out / "subadditivity.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        old = ["masses_m", "masses_t", "i_m", "i_t", "i_sum", "margin", "converged"]
        assert rows[0] == old + ["virial_m", "virial_t", "virial_sum"]
        config = hf.load_config(path)
        scan = hf.subadditivity_scan(
            hf.default_pairs(config.params.component_count, config.seed), config.params, cli._kernel(config),
            solver=config.solver, base_seed=config.seed,
        )
        s = config.params.dilation_exponent
        records = scan.records + scan.excluded
        assert len(rows) == 1 + len(records)
        for row, rec in zip(rows[1:], records):
            assert row[2:5] == [repr(inf.value) for inf in rec.infima]
            assert row[7:] == [repr(hf.virial_residual(inf.energy, s)) for inf in rec.infima]

    def test_check_lemmas_reports_the_reference_virial_residual(self, tmp_path):
        assert main(["check-lemmas", "--config", lemmas_2d_config(tmp_path)]) == 0
        report = json.loads((tmp_path / "out" / "lemma_checks.json").read_text())
        assert report["virial"]["dilation_exponent"] == 1.0
        assert abs(report["virial"]["residual"] - -3.2348e-2) <= 1e-5
        # informational only: never one of the pass/fail checks
        assert all(set(c) == {"name", "passed", "detail"} and "virial" not in c["name"] for c in report["checks"])

    def test_check_lemmas_solves_only_the_half_masses_besides_the_reference(self, tmp_path, monkeypatch, capsys):
        # the reference solve is I(M) of the sample pair (M/2, M/2): one solo
        # stack for it, then one stack of the 2 seeded runs of I(M/2)
        sizes = []
        loop = hf.minimize._minimize

        def spy(state, *args):
            sizes.append(len(state.x))
            return loop(state, *args)

        monkeypatch.setattr(hf.minimize, "_minimize", spy)
        assert main(["check-lemmas", "--config", lemmas_2d_config(tmp_path)]) == 0
        assert sizes == [1, 2]
        capsys.readouterr()

    def test_check_lemmas_sample_margin_uses_the_reference_state(self, tmp_path, capsys):
        path = lemmas_2d_config(tmp_path)
        assert main(["check-lemmas", "--config", path]) == 0
        params = cli.load_config(path).params
        kernel = hf.build_kernel(hf.grid_for(params), params.kernel_exponent)
        gs = hf.ground_state(params, kernel, tol=1e-6, max_iters=300000, seed=0)
        half = hf.infimum_value((0.5, 0.5), params, kernel, solver=hf.SolverConfig(tol=1e-6, max_iters=300000, seeds=2))
        sample = lemma_checks(tmp_path)["subadditivity-sample"]
        assert sample["passed"] is True
        assert sample["detail"] == f"margin={2 * half.value - gs.energy.total:.6g}"
        capsys.readouterr()

    def test_check_lemmas_sample_fails_with_its_reference_solve(self, tmp_path, monkeypatch, capsys):
        # the half-mass runs would converge, but I(M) is the reference state, which did not
        solve = cli.ground_state
        monkeypatch.setattr(cli, "ground_state", lambda *a, **kw: replace(solve(*a, **kw), stop_reason="max_iters"))
        assert main(["check-lemmas", "--config", lemmas_2d_config(tmp_path)]) == 1
        sample = lemma_checks(tmp_path)["subadditivity-sample"]
        assert (sample["passed"], sample["detail"]) == (False, "reference solve did not converge")
        capsys.readouterr()

    def test_check_lemmas_reports_the_sample_margin_against_the_scaling_law(self, tmp_path, capsys):
        # I(M/2) = 2^-gamma I(M) predicts margin/|I(M)| = 1 - 2^(1-gamma); the
        # shipped kernel misses it by its scaling error (measured -1.45e-3)
        out = tmp_path / "out"
        assert main(["check-lemmas", "--config", REFERENCE, "--out", str(out)]) == 0
        report = json.loads((out / "lemma_checks.json").read_text())
        scaling = report["scaling"]
        gamma = hf.load_config(REFERENCE).params.mass_scaling_exponent
        assert scaling["mass_scaling_exponent"] == gamma == pytest.approx(7 / 3)
        assert scaling["predicted_ratio"] == 1 - 2 ** (1 - gamma)
        assert -2e-3 <= scaling["sample_margin_ratio"] / scaling["predicted_ratio"] - 1 <= -1e-3
        # informational only, like virial: beside the checks, never one of them
        assert set(report) == {"passed", "checks", "virial", "scaling"}
        capsys.readouterr()

    def test_check_lemmas_scaling_ratio_is_nan_at_zero_energy(self, tmp_path, monkeypatch, capsys):
        solve = cli.ground_state
        zero = hf.EnergyBreakdown(1.0, 1.0)
        monkeypatch.setattr(cli, "ground_state", lambda *a, **kw: replace(solve(*a, **kw), energy=zero))
        out = tmp_path / "out"
        assert main(["check-lemmas", "--config", write_config(tmp_path, base_config(output_dir=str(out)))]) == 1
        report = json.loads((out / "lemma_checks.json").read_text())
        assert math.isnan(report["scaling"]["sample_margin_ratio"])
        assert math.isnan(report["virial"]["residual"])
        capsys.readouterr()

    def test_check_lemmas_exit_zero(self, tmp_path):
        cfg = base_config()
        cfg["params"]["points_per_dim"] = 128
        out = tmp_path / "out"
        cfg["output_dir"] = str(out)
        path = write_config(tmp_path, cfg)
        assert main(["check-lemmas", "--config", path]) == 0
        report = json.loads((out / "lemma_checks.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"infimum-negative", "multipliers-positive", "subadditivity-sample"} <= names

    def test_check_lemmas_nonzero_exit_on_failure(self, tmp_path, capsys):
        # an iteration budget too small to converge fails the battery
        cfg = base_config()
        cfg["solver"] = {"tol": 1e-6, "max_iters": 3, "seeds": 1}
        out = tmp_path / "out"
        cfg["output_dir"] = str(out)
        path = write_config(tmp_path, cfg)
        assert main(["check-lemmas", "--config", path]) == 1
        report = json.loads((out / "lemma_checks.json").read_text())
        assert report["passed"] is False
        capsys.readouterr()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_check_lemmas_unconverged_reference_keeps_the_entry_names(self, tmp_path, monkeypatch, capsys, m):
        # a reference solve stopped at max_iters fails every entry with that
        # reason and computes none: I(M/2) is not solved and its ratio is NaN;
        # the report lists the entries of a converged run at the same m
        half_solves = []
        solve = hf.analysis.ground_state
        monkeypatch.setattr(hf.analysis, "ground_state", lambda *a, **kw: half_solves.append(a) or solve(*a, **kw))
        reports = {}
        for max_iters in (1, 50000):
            out = tmp_path / f"out{max_iters}"
            cfg = base_config(output_dir=str(out))
            cfg["params"].update(component_count=m, masses=[1.0] * m)
            cfg["solver"]["max_iters"] = max_iters
            status = main(["check-lemmas", "--config", write_config(tmp_path, cfg)])
            reports[max_iters] = (status, json.loads((out / "lemma_checks.json").read_text()), len(half_solves))
        status, report, solves = reports[1]
        assert (status, solves) == (1, 0)
        assert all((c["passed"], c["detail"]) == (False, "reference solve did not converge") for c in report["checks"])
        assert math.isnan(report["scaling"]["sample_margin_ratio"])
        converged = reports[50000][1]["checks"]
        assert "converged=True" in converged[0]["detail"]
        assert [c["name"] for c in report["checks"]] == [c["name"] for c in converged]
        assert reports[50000][2] == 1  # the converged run solves I(M/2), and the spy sees it
        capsys.readouterr()

    @pytest.mark.parametrize("entry", list(NEGATIVE_CONTROLS))
    def test_check_lemmas_entry_fails_on_its_negative_control(self, tmp_path, monkeypatch, capsys, entry):
        # every entry passes on this config unaltered (test_check_lemmas_exit_zero)
        solve = cli.ground_state
        monkeypatch.setattr(cli, "ground_state", lambda *a, **kw: NEGATIVE_CONTROLS[entry](solve(*a, **kw)))
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["params"]["points_per_dim"] = 128
        assert main(["check-lemmas", "--config", write_config(tmp_path, cfg)]) == 1
        assert lemma_checks(tmp_path)[entry]["passed"] is False
        capsys.readouterr()

    def test_stability_unconverged_reference_exits_one(self, tmp_path, capsys):
        # the error names the stop reason, and the manifest lists no outputs
        out = tmp_path / "out"
        cfg = base_config(output_dir=str(out))
        cfg["solver"]["max_iters"] = 1
        assert main(["stability", "--config", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: stability needs a converged reference solve; it stopped with max_iters\n"
        assert os.listdir(out) == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["outputs"] == {}

    def test_non_finite_energy_exits_one_with_one_error_line(self, tmp_path, capsys):
        # masses of 1e200 overflow the start's energy: no traceback, no numpy
        # warning, and a manifest
        out = tmp_path / "out"
        cfg = base_config(output_dir=str(out))
        cfg["params"]["masses"] = [1e200, 1e200]
        assert main(["minimize", "--config", write_config(tmp_path, cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: minimize stopped: non-finite energy at iteration 0\n"
        assert os.listdir(out) == ["manifest.json"]

    def test_non_finite_field_exits_one_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        def blow_up(*args, **kwargs):
            raise NanAbortError("non-finite field during propagation")

        monkeypatch.setattr(cli, "stability_experiment", blow_up)
        out = tmp_path / "out"
        assert main(["stability", "--config", write_config(tmp_path, base_config(output_dir=str(out)))]) == 1
        assert capsys.readouterr().err == "error: stability stopped: non-finite field during propagation\n"
        assert os.listdir(out) == ["manifest.json"]

    @pytest.mark.parametrize(
        "command, status",
        [("validate", 0), ("minimize", 0), ("scan", 0), ("stability", 1), ("check-lemmas", 1)],
    )
    def test_no_subcommand_crashes_on_an_unconverged_solve(self, tmp_path, capsys, command, status):
        out = tmp_path / "out"
        cfg = base_config(output_dir=str(out))
        cfg["solver"]["max_iters"] = 1
        assert main([command, "--config", write_config(tmp_path, cfg)]) == status
        err = capsys.readouterr().err
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("out", ["taken", os.path.join("taken", "out")])
    def test_out_naming_a_file_exit_two(self, tmp_path, capsys, out):
        # a file where the output directory should be: one error line, nothing written
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        path = write_config(tmp_path, base_config())
        assert main(["validate", "--config", path, "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot create output directory {tmp_path / out}: a file is in the way\n"
        assert taken.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["run.json", "taken"]

    def test_uncreatable_output_dir_exit_two(self, tmp_path, capsys, monkeypatch):
        # any OSError of makedirs (here a refused permission): one error line, nothing written
        def refuse(path, exist_ok=False):
            raise PermissionError(13, "Permission denied", path)

        path = write_config(tmp_path, base_config())
        monkeypatch.setattr(os, "makedirs", refuse)
        assert main(["validate", "--config", path, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot create output directory {tmp_path / 'out'}: Permission denied\n"
        assert os.listdir(tmp_path) == ["run.json"]

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg = base_config()
        cfg["params"]["power"] = 3.9
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("section,key", [("evolution", "T"), ("evolution", "dt"), ("solver", "tol")])
    def test_non_finite_value_exit_two(self, tmp_path, capsys, section, key, value):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg[section][key] = value
        path = write_config(tmp_path, cfg)
        command = "stability" if section == "evolution" else "minimize"
        assert main([command, "--config", path]) == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_step_count_exit_two(self, tmp_path, capsys):
        # T and dt are finite, but T/dt is not: rejected before the solve
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["evolution"] = {"T": 1e300, "dt": 1e-10}
        path = write_config(tmp_path, cfg)
        assert main(["stability", "--config", path]) == 2
        assert "T/dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("T", [0.0025, 0.0015, 0.0004])
    def test_partial_step_exit_two(self, tmp_path, capsys, monkeypatch, T):
        # T/dt = 2.5, 1.5 and 0.4: no whole number of steps reaches the T the
        # manifest records, so the config is refused before any solve
        monkeypatch.setattr(cli, "ground_state", lambda *a, **kw: pytest.fail("solved"))
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["evolution"] = {"T": T, "dt": 1e-3}
        assert main(["stability", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"whole number of steps, got T={T}, dt=0.001" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "stability"])
    def test_stability_trace_too_large_exit_two(self, tmp_path, capsys, monkeypatch, command):
        # T/dt is finite, but a stability trace of 4e13 samples exceeds any
        # memory: every config is refused before any solve, nothing written
        monkeypatch.setattr(cli, "ground_state", lambda *a, **kw: pytest.fail("solved"))
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["evolution"] = {"T": 1e12, "dt": 1e-3}
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.evolution: T = 1000000000000.0 with dt = 0.001 is too long")
        assert "stability trace of 40000000000001 samples" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_evolve_is_not_an_experiment(self, tmp_path, capsys):
        # stability is the one evolution experiment: no subcommand, no config value
        path = write_config(tmp_path, base_config(output_dir=str(tmp_path / "out")))
        with pytest.raises(SystemExit) as exited:
            main(["evolve", "--config", path])
        assert exited.value.code == 2
        assert "invalid choice: 'evolve'" in capsys.readouterr().err
        valid = "validate, minimize, scan-subadditivity, stability, lemma-checks"
        with pytest.raises(ConfigError, match=f"unknown experiment 'evolve'; expected one of {valid}$"):
            parse_config(base_config(experiment="evolve"))
        path = write_config(tmp_path, base_config(experiment="evolve", output_dir=str(tmp_path / "out")))
        assert main(["stability", "--config", path]) == 2
        assert valid in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,key,value,masses",
        [
            ("params", "masses", [None, 1.0], None),
            ("params", "masses", ["abc", 1.0], None),
            ("params", "masses", [[1.0], 1.0], None),
            ("params", "masses", ["1.0", 1.0], None),
            ("params", "masses", [True, 1.0], None),
            (None, "seed", True, None),
            ("params", "component_count", True, [1.0]),
            ("params", "space_dim", True, None),
            ("solver", "seeds", True, None),
            ("solver", "max_iters", True, None),
        ],
        ids=["mass-null", "mass-string", "mass-list", "mass-numeric-string", "mass-true",
             "seed-true", "component-count-true", "space-dim-true", "seeds-true", "max-iters-true"],
    )
    def test_non_numeric_or_boolean_value_exit_two(self, tmp_path, capsys, section, key, value, masses):
        # JSON true/false is not a number, and neither is a string that spells one
        cfg = base_config(output_dir=str(tmp_path / "out"))
        (cfg if section is None else cfg[section])[key] = value
        if masses is not None:
            cfg["params"]["masses"] = masses
        path = write_config(tmp_path, cfg)
        assert main(["minimize", "--config", path]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,key",
        [("params", "power"), ("params", "kernel_exponent"), ("params", "box_length"), ("params", "masses"),
         ("solver", "tol"), ("evolution", "T"), ("evolution", "dt")],
    )
    def test_integer_too_large_for_float_exit_two(self, tmp_path, capsys, section, key):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg[section][key] = [10**400, 1.0] if key == "masses" else 10**400
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["space_dim", "points_per_dim"])
    def test_int_field_too_large_for_float_exit_two(self, tmp_path, capsys, key):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["params"][key] = 10**400
        path = write_config(tmp_path, cfg)
        assert main(["minimize", "--config", path]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "minimize"])
    def test_kernel_exponent_at_least_space_dim_exit_two(self, tmp_path, capsys, command):
        # every paper clause holds at N=1, alpha=1.5, p=2, but the kernel cannot be built
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["params"]["kernel_exponent"] = 1.5
        assert hf.validate_assumptions(hf.SystemParams(**{**cfg["params"], "masses": (1.0, 1.0)})).passed
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "kernel_exponent" in err and "space_dim" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exit_two(self, tmp_path, capsys, where):
        cfg = base_config(output_dir=str(tmp_path / "out"), seed=-1 if where == "config" else 3)
        args = ["minimize", "--config", write_config(tmp_path, cfg)]
        assert main(args + (["--seed", "-1"] if where == "flag" else [])) == 2
        err = capsys.readouterr().err
        assert "config.seed" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("space_dim,n", [(1, 2**40), (3, 2**14), (10**18, 8)])
    def test_grid_too_large_to_allocate_exit_two(self, tmp_path, capsys, space_dim, n):
        # refused from the config alone: no grid array is allocated
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["params"]["space_dim"] = space_dim
        cfg["params"]["points_per_dim"] = n
        path = write_config(tmp_path, cfg)
        assert main(["minimize", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "points_per_dim" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["directory", "utf-16"])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, kind):
        path = tmp_path / "run.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["validate", "--config", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,experiment",
        [("validate", "validate"), ("minimize", "minimize"),
         ("scan", "scan-subadditivity"), ("stability", "stability"), ("check-lemmas", "lemma-checks")],
    )
    def test_subcommand_runs_its_experiment(self, tmp_path, capsys, command, experiment):
        cfg = base_config()
        cfg["params"]["points_per_dim"] = 16
        cfg["solver"] = {"tol": 1e-4, "max_iters": 200, "seeds": 1}
        cfg["evolution"] = {"T": 0.01, "dt": 1e-3}
        out = tmp_path / "out"
        status = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert status in ((0, 1) if command == "check-lemmas" else (0,))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["experiment"] == experiment
        capsys.readouterr()


def test_readme_command_block_lists_every_subcommand():
    # the README's `python -m hartreeflow <command>` lines are the parser's subcommands
    with open(os.path.join(os.path.dirname(REFERENCE), os.pardir, "README.md"), encoding="utf-8") as fh:
        listed = re.findall(r"^python -m hartreeflow (\S+)", fh.read(), re.MULTILINE)
    assert sorted(listed) == sorted(cli._SUBCOMMAND_NAMES.get(e, e) for e in cli.EXPERIMENTS)
