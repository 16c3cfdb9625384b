"""Correctness gate of the benchmark.

Every check uses an invariant the paper guarantees or agreement between two
layers of the program, never a stored energy: the energies themselves are
expected to move when the discretisation improves.  A check is a
(name, passed, detail) triple; the benchmark reports failed / attempted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

STABLE_DISTANCE = 1e-4  # orbit distance of the unperturbed minimiser over the run
ENERGY_AGREEMENT = 1e-10  # relative, ground_state energy vs hartree.total_energy


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def manifest_hashes(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def artifact_checks(experiment: str, out_dir: str, status: int) -> list[tuple[str, bool, str]]:
    """Checks on what one cli.run wrote to out_dir; unreadable artifacts fail a check."""
    checks = [("exit-status", status == 0, f"status={status}")]
    try:
        checks += _artifact_checks(experiment, out_dir)
    except (OSError, KeyError, ValueError) as exc:
        checks.append(("artifacts-readable", False, f"{type(exc).__name__}: {exc}"))
    return checks


def _artifact_checks(experiment: str, out_dir: str) -> list[tuple[str, bool, str]]:
    checks = []
    outputs = manifest_hashes(out_dir)
    for name, digest in sorted(outputs.items()):
        path = os.path.join(out_dir, name)
        ok = os.path.exists(path) and _sha256(path) == digest
        checks.append((f"manifest:{name}", ok, "hash matches" if ok else "missing or hash differs"))

    if experiment == "scan-subadditivity":
        rows = _rows(os.path.join(out_dir, "subadditivity.csv"))
        checks.append(("scan-nonempty", bool(rows), f"{len(rows)} records"))
        for row in rows:
            pair = f"{row['masses_m']}|{row['masses_t']}"
            infima = [float(row[k]) for k in ("i_m", "i_t", "i_sum")]
            checks.append((f"converged:{pair}", row["converged"] == "True", row["converged"]))
            checks.append((f"margin-positive:{pair}", float(row["margin"]) > 0, row["margin"]))
            checks.append((f"infima-negative:{pair}", all(v < 0 for v in infima), repr(infima)))
    elif experiment == "stability":
        rows = _rows(os.path.join(out_dir, "stability.csv"))
        checks.append(("stability-nonempty", bool(rows), f"{len(rows)} entries"))
        for row in rows:
            eps = float(row["epsilon"])
            checks.append((f"unflagged:eps={eps:g}", row["flags"] == "", row["flags"] or "no flags"))
            if eps == 0:
                dist = float(row["max_distance"])
                checks.append(("stable-unperturbed", dist <= STABLE_DISTANCE, f"max_distance={dist:.3e}"))
    elif experiment == "lemma-checks":
        with open(os.path.join(out_dir, "lemma_checks.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        checks.append(("lemmas-nonempty", bool(report["checks"]), f"{len(report['checks'])} lemmas"))
        for entry in report["checks"]:
            checks.append((f"lemma:{entry['name']}", entry["passed"] is True, entry["detail"]))
    return checks


def reference_state(params, tol: float, max_iters: int, seed: int):
    """Solve the workload's reference state through the public API."""
    from hartreeflow import build_kernel, grid_for, ground_state

    kernel = build_kernel(grid_for(params), params.kernel_exponent)
    gs = ground_state(params, kernel, tol=tol, max_iters=max_iters, seed=seed)
    return gs, kernel


def api_checks(gs, kernel, p: float, tol: float) -> list[tuple[str, bool, str]]:
    """ground_state agrees with the hartree layer on energy and residual."""
    from hartreeflow import el_residual, h1_norm_sq, total_energy

    energy = total_energy(gs.fields, kernel, p).total
    rel = abs(gs.energy.total - energy) / abs(energy)
    residual = el_residual(gs.fields, gs.multipliers, kernel, p)
    h1 = np.sqrt([h1_norm_sq(c) for c in gs.fields.components])
    worst = float(np.max(residual / h1))
    return [
        ("api:converged", bool(gs.converged), f"iterations={gs.iterations}"),
        ("api:energy-agrees", rel <= ENERGY_AGREEMENT, f"relative difference={rel:.3e}"),
        ("api:residual-within-tol", worst <= tol * (1 + 1e-9), f"residual/H1={worst:.6e} tol={tol:g}"),
    ]
