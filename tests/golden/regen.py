"""Golden numbers: every number that a fixed matrix of command-line runs reports.

tests/golden/<run>.json holds one run of the matrix, read back from what it
wrote:

* "exit_status": the status cli.main returned;
* "solves": the iteration counts and stop reasons of every call of the
  minimiser loop, member by member, in call order;
* "files": every artifact the run's manifest lists.  A CSV is its header and
  rows, each cell a float when it parses as one and a string otherwise; a
  JSON file is itself; the field snapshot is its grid and the real and
  imaginary parts of its fields.  manifest.json contributes its config
  without output_dir; its paths, hashes and library versions stay out.

tests/test_golden.py re-runs every run in-process through cli.main and
compares it with its file: ints, strings and booleans exactly, floats within
1e-12 max(|a|, |b|, 1).  Numbers are compared, not file hashes, because FFT
bits differ across CPUs and numpy builds.  A formatted number inside a
string (a check-lemmas detail) is compared as the string.

    PYTHONPATH=src python tests/golden/regen.py

re-runs the matrix, rewrites the files and prints every change as
"run, file, key: old -> new", and whole runs or files that came or went.  A
change that moves a reported number commits the rewritten files with that
printout; any other change leaves them untouched.  Rewriting them to make a
failing refactor pass loosens the check.

    PYTHONPATH=src python tests/golden/regen.py --exact

re-runs the matrix and writes nothing: it prints every value that differs at
all from its file, in the same form, and exits with status 1 if any does.  It
shows that a change moves no reported number by even one bit, which the
1e-12 tolerance of the test cannot show.

The matrix, each run at seeds 0 and 121: every subcommand at
configs/reference.json; check-lemmas at the 2D inputs of the benchmark's
lemmas-2d workload; check-lemmas and scan at m=1 (masses (1)) and m=3
(masses (1, 1, 1)) variants of the reference; check-lemmas and stability
at power 2.5, the one variant that runs the p != 2 branches of the
nonlinearity.  scan at the 2D inputs and at power 2.5 is left out: their
seeded starts crawl (ROADMAP item 13), so such a run alone takes 70-100 s,
against a few seconds for the whole matrix.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import io
import json
import math
import os
import sys
import tempfile

from hartreeflow import cli, grid, minimize

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, os.pardir, os.pardir, "configs", "reference.json")
SEEDS = (0, 121)
RELATIVE_TOL = 1e-12


def _matrix() -> dict:
    """Run name -> (subcommand, raw config, seed)."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    def variant(**params):
        return {**reference, "params": {**reference["params"], **params}}

    inputs = {
        "reference": (reference, [cli._SUBCOMMAND_NAMES.get(e, e) for e in cli.EXPERIMENTS]),
        "lemmas-2d": (variant(space_dim=2, kernel_exponent=1.0, points_per_dim=64), ["check-lemmas"]),
        "m1": (variant(component_count=1, masses=[1.0]), ["check-lemmas", "scan"]),
        "m3": (variant(component_count=3, masses=[1.0, 1.0, 1.0]), ["check-lemmas", "scan"]),
        "p25": (variant(power=2.5), ["check-lemmas", "stability"]),
    }
    return {
        f"{tag}-{command}-seed{seed}": (command, raw, seed)
        for tag, (raw, commands) in inputs.items()
        for command in commands
        for seed in SEEDS
    }


MATRIX = _matrix()


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read(path: str):
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return {"header": header, "rows": [[_cell(c) for c in row] for row in rows]}
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    mf = grid.read_snapshot(path)
    g = mf.grid
    return {
        "space_dim": g.space_dim,
        "points_per_dim": g.points_per_dim,
        "box_length": g.box_length,
        "re": mf.data.real.tolist(),
        "im": mf.data.imag.tolist(),
    }


def run(name: str, tmp_dir) -> dict:
    """Run one entry of the matrix through cli.main in tmp_dir and read back what it reports."""
    command, raw, seed = MATRIX[name]
    config = os.path.join(tmp_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    out = os.path.join(tmp_dir, "out")
    solves = []
    loop = minimize._minimize

    def spy(*args):
        result = loop(*args)
        *_, iterations, reasons = result
        solves.append({"iterations": [int(i) for i in iterations], "stop_reasons": list(reasons)})
        return result

    minimize._minimize = spy
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main([command, "--config", config, "--out", out, "--seed", str(seed)])
    finally:
        minimize._minimize = loop
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    files = {f: _read(os.path.join(out, f)) for f in sorted(manifest["outputs"])}
    files["manifest.json"] = {"config": {k: v for k, v in manifest["config"].items() if k != "output_dir"}}
    return {"exit_status": status, "solves": solves, "files": files}


def _path(name: str) -> str:
    return os.path.join(HERE, f"{name}.json")


def load(name: str) -> dict:
    with open(_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _leaves(value, key: str = "") -> dict:
    """Key -> leaf of a JSON value: '.name' steps into an object, '[i]' into a list."""
    if isinstance(value, dict):
        return {k: v for name, item in value.items() for k, v in _leaves(item, f"{key}.{name}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _leaves(item, f"{key}[{i}]").items()}
    return {key.lstrip("."): value}


def _by_file(record: dict) -> dict:
    """File -> (key -> leaf); exit_status and solves are the file 'run'."""
    files = {"run": _leaves({"exit_status": record["exit_status"], "solves": record["solves"]})}
    for name, content in record["files"].items():
        if name.endswith(".csv"):  # a cell's key is its row and column name
            header = content["header"]
            content = {"header": header, "rows": [dict(zip(header, row)) for row in content["rows"]]}
        files[name] = _leaves(content)
    return files


def same(a, b, tol: float = RELATIVE_TOL) -> bool:
    """Equal as golden numbers: same type, and floats within tol (floor 1; NaN equals NaN); tol 0 is exact."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and a != b:
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isfinite(a - b) and abs(a - b) <= tol * max(abs(a), abs(b), 1.0)
    return a == b


def changes(name: str, old: dict, new: dict, tol: float = RELATIVE_TOL) -> list[str]:
    """One line per difference of two records of run `name`: a file that came or went, a key, a value moved beyond tol."""
    old_files, new_files = _by_file(old), _by_file(new)
    lines = []
    for f in sorted(old_files.keys() - new_files.keys()):
        lines.append(f"{name}, {f}: removed")
    for f in sorted(new_files.keys() - old_files.keys()):
        lines.append(f"{name}, {f}: added")
    for f in sorted(old_files.keys() & new_files.keys()):
        a, b = old_files[f], new_files[f]
        for key in a.keys() | b.keys():
            if key not in b:
                lines.append(f"{name}, {f}, {key}: removed")
            elif key not in a:
                lines.append(f"{name}, {f}, {key}: added")
            elif not same(a[key], b[key], tol):
                lines.append(f"{name}, {f}, {key}: {a[key]!r} -> {b[key]!r}")
    return sorted(lines)


def main(argv=None) -> int:
    """Rewrite every golden file from a fresh run and print what changed; with --exact, only compare."""
    parser = argparse.ArgumentParser(description="Re-run the golden-numbers matrix.")
    parser.add_argument(
        "--exact", action="store_true", help="write nothing; list every value that differs at all, exit 1 if any"
    )
    exact = parser.parse_args(argv).exact
    lines = []
    for path in sorted(glob.glob(os.path.join(HERE, "*.json"))):
        stale = os.path.basename(path)[: -len(".json")]
        if stale not in MATRIX:
            if not exact:
                os.remove(path)
            lines.append(f"{stale}: removed")
    for name in MATRIX:
        with tempfile.TemporaryDirectory() as tmp:
            record = run(name, tmp)
        if os.path.exists(_path(name)):
            lines += changes(name, load(name), record, 0.0 if exact else RELATIVE_TOL)
        else:
            lines.append(f"{name}: added")
        if not exact:
            with open(_path(name), "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    print("\n".join(lines) if lines else "no change")
    print(f"{len(MATRIX)} runs, {len(lines)} changes")
    return 1 if exact and lines else 0


if __name__ == "__main__":
    sys.exit(main())
