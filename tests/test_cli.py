import json
import os
from dataclasses import asdict, fields

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
