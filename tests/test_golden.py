"""Nothing the command line reports moves: the golden-numbers matrix re-run.

Each run of tests/golden/regen.py's matrix is run in-process through
cli.main and compared with its committed file (ints, strings and booleans
exactly, floats within 1e-12 max(|a|, |b|, 1)).  A refactor that moves a
reported number fails here, naming the run, file and key; regen.py prints
the same lines when it rewrites the files.
"""

import glob
import os
import pathlib
import sys
from dataclasses import replace

import pytest

import hartreeflow as hf
from hartreeflow import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
sys.path.insert(0, GOLDEN)
import regen  # noqa: E402


@pytest.mark.parametrize("name", list(regen.MATRIX))
def test_run_reports_its_golden_numbers(tmp_path, name):
    assert regen.changes(name, regen.load(name), regen.run(name, tmp_path)) == []


def test_every_golden_file_is_a_run_of_the_matrix():
    files = sorted(os.path.basename(p) for p in glob.glob(os.path.join(GOLDEN, "*.json")))
    assert files == sorted(f"{name}.json" for name in regen.MATRIX)


@pytest.mark.parametrize("relative, fails", [(1e-11, True), (1e-13, False)])
def test_a_moved_energy_fails_and_is_named(tmp_path, monkeypatch, relative, fails):
    # the reference energy moved by 1e-11 relative fails, naming run, file and
    # key; moved by 1e-13, it is within the tolerance
    solve = cli.ground_state

    def moved(*args, **kwargs):
        gs = solve(*args, **kwargs)
        scale = 1 + relative
        return replace(gs, energy=hf.EnergyBreakdown(gs.energy.kinetic * scale, gs.energy.interaction * scale))

    monkeypatch.setattr(cli, "ground_state", moved)
    name = "reference-minimize-seed0"
    lines = regen.changes(name, regen.load(name), regen.run(name, tmp_path))
    prefix = f"{name}, ground_state.json, energy.total: "
    assert any(line.startswith(prefix) for line in lines) == fails
    assert bool(lines) == fails


def test_same_compares_types_exactly_and_floats_within_the_tolerance():
    assert regen.same(1.0, 1.0 + 5e-13) and regen.same(1e-20, 5e-13) and regen.same(float("nan"), float("nan"))
    assert not regen.same(1.0, 1.0 + 2e-12) and not regen.same(1, 1.0) and not regen.same(True, 1)
    assert regen.same(float("inf"), float("inf")) and not regen.same(float("inf"), float("-inf"))
    assert not regen.same("margin=0.146736", "margin=0.146737")
    # tol 0, regen.py --exact: any move differs, NaN still equals NaN
    assert not regen.same(1.0, 1.0 + 2**-52, 0.0) and regen.same(float("nan"), float("nan"), 0.0)


@pytest.mark.parametrize("relative", [0.0, 1e-15])
def test_exact_mode_lists_every_moved_value_and_writes_nothing(monkeypatch, capsys, relative):
    # regen.py --exact over a matrix whose runs read back their own files,
    # one energy moved by `relative`: a move the 1e-12 comparison accepts is
    # listed and gives exit status 1; no move gives "no change" and 0
    name = "reference-minimize-seed0"

    def rerun(run_name, tmp_dir):
        record = regen.load(run_name)
        if run_name == name:
            record["files"]["ground_state.json"]["energy"]["total"] *= 1 + relative
        return record

    files = {p: pathlib.Path(p).read_bytes() for p in glob.glob(os.path.join(GOLDEN, "*.json"))}
    monkeypatch.setattr(regen, "run", rerun)
    assert regen.changes(name, regen.load(name), rerun(name, None)) == []
    assert regen.main(["--exact"]) == (1 if relative else 0)
    lines = capsys.readouterr().out.splitlines()
    if relative:
        assert len(lines) == 2 and lines[0].startswith(f"{name}, ground_state.json, energy.total: ")
    else:
        assert lines[0] == "no change"
    assert {p: pathlib.Path(p).read_bytes() for p in files} == files
