import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace

import pytest

import hartreeflow as hf
from hartreeflow import cli
from hartreeflow.cli import ConfigError, EvolutionConfig, RunConfig, SolverConfig, main, parse_config

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

    def test_evolve_writes_trace(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output_dir=str(out)))
        assert main(["evolve", "--config", path]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,mass_1,mass_2,energy,orbit_distance"
        assert len(lines) > 2

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
        solver = config.solver
        scan = hf.subadditivity_scan(
            hf.default_pairs(config.params.component_count, config.seed), config.params, cli._kernel(config),
            tol=solver.tol, max_iters=solver.max_iters, seeds_per_value=solver.seeds, base_seed=config.seed,
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
        half = hf.infimum_value((0.5, 0.5), params, kernel, tol=1e-6, max_iters=300000, seeds_per_value=2)
        sample = lemma_checks(tmp_path)["subadditivity-sample"]
        assert sample["passed"] is True
        assert sample["detail"] == f"margin={2 * half.value - gs.energy.total:.6g}"
        capsys.readouterr()

    def test_check_lemmas_sample_fails_with_its_reference_solve(self, tmp_path, monkeypatch, capsys):
        # the half-mass runs converge, but I(M) is the reference state, which did not
        solve = cli.ground_state
        monkeypatch.setattr(cli, "ground_state", lambda *a, **kw: replace(solve(*a, **kw), stop_reason="max_iters"))
        assert main(["check-lemmas", "--config", lemmas_2d_config(tmp_path)]) == 1
        assert lemma_checks(tmp_path)["subadditivity-sample"]["passed"] is False
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
        zero = hf.EnergyBreakdown.make(1.0, 1.0)
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
    def test_check_lemmas_unconverged_reference_keeps_the_entry_names(self, tmp_path, capsys, m):
        # a reference solve stopped at max_iters fails each check that needs it,
        # and the report lists the entries of a converged run at the same m
        reports = {}
        for max_iters in (1, 50000):
            out = tmp_path / f"out{max_iters}"
            cfg = base_config(output_dir=str(out))
            cfg["params"].update(component_count=m, masses=[1.0] * m)
            cfg["solver"]["max_iters"] = max_iters
            status = main(["check-lemmas", "--config", write_config(tmp_path, cfg)])
            reports[max_iters] = (status, json.loads((out / "lemma_checks.json").read_text())["checks"])
        status, checks = reports[1]
        assert status == 1
        needs_reference = ["phase-factorization", "scaling-gap-positive", "concentration-tight"]
        if m == 2:
            needs_reference.append("cross-term-negative")
        outcome = {c["name"]: (c["passed"], c["detail"]) for c in checks}
        for name in needs_reference:
            assert outcome[name] == (False, "reference solve did not converge")
        converged = reports[50000][1]
        assert "converged=True" in converged[0]["detail"]
        assert [c["name"] for c in checks] == [c["name"] for c in converged]
        capsys.readouterr()

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
        command = "evolve" if section == "evolution" else "minimize"
        assert main([command, "--config", path]) == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_step_count_exit_two(self, tmp_path, capsys):
        # T and dt are finite, but T/dt is not: rejected before the solve
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["evolution"] = {"T": 1e300, "dt": 1e-10}
        path = write_config(tmp_path, cfg)
        assert main(["evolve", "--config", path]) == 2
        assert "T/dt" in capsys.readouterr().err
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
        [("validate", "validate"), ("minimize", "minimize"), ("evolve", "evolve"),
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
