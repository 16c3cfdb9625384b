"""Acceptance suite: every primary criterion at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s to see them).  Desk scale: N=1, n=256, L=40, p=2, alpha=0.5, masses in
{0.5, 1}; solver tolerance 1e-6 throughout.
"""

import numpy as np
import pytest
from dataclasses import replace

import hartreeflow as hf
from conftest import TOL, trig_field
from test_hartree import direct_convolution, direct_pair_interaction


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_oracle_equivalence():
    """Spectral pair energies and convolutions match direct double sums."""
    worst = 0.0
    for n_dim, n, alpha in ((1, 16, 0.5), (2, 12, 0.75)):
        grid = hf.Grid(space_dim=n_dim, points_per_dim=n, box_length=10.0)
        kernel = hf.build_kernel(grid, alpha)
        rng = np.random.default_rng(n_dim)
        rho = rng.random(grid.shape)
        conv = hf.convolve_density(kernel, hf.MultiField(grid, rho[None])).data[0].real
        direct = direct_convolution(kernel, rho)
        worst = max(worst, float(np.abs(conv - direct).max() / np.abs(direct).max()))
        f = hf.MultiField(grid, (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))[None])
        g = hf.MultiField(grid, (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))[None])
        val = hf.pair_interaction(4.0, f, g, kernel, 2.0)
        ref = direct_pair_interaction(4.0, f, g, kernel, 2.0)
        worst = max(worst, abs(val - ref) / abs(ref))
    report("oracle-equivalence", worst <= 1e-10, f"max rel err {worst:.3e} (tol 1e-10)")


def test_gradient_correctness():
    """Central finite differences of the energy match the gradient for m = 1, 2, 3."""
    grid = hf.Grid(space_dim=1, points_per_dim=32, box_length=20.0)
    kernel = hf.build_kernel(grid, 0.5)
    eps, worst = 1e-5, 0.0
    for m in (1, 2, 3):
        mf = trig_field(grid, seed=40 + m, m=m)
        v = trig_field(grid, seed=50 + m, m=m)
        grad = hf.energy_gradient(mf, kernel, 2.0)
        e_plus = hf.total_energy(hf.MultiField(grid, mf.data + eps * v.data), kernel, 2.0).total
        e_minus = hf.total_energy(hf.MultiField(grid, mf.data - eps * v.data), kernel, 2.0).total
        fd = (e_plus - e_minus) / (2 * eps)
        analytic = hf.inner(grad, v).real
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    report("gradient-correctness", worst <= 1e-6, f"max rel err {worst:.3e} (tol 1e-6, eps 1e-5)")


def test_infimum_negativity(scan_m2, scan_m3):
    """Converged infima are strictly negative, and positive K and P make them so.

    A critical point satisfies the virial identity 2K = sP with s < 2, so
    I = K - P = -(1 - s/2) P < 0 once K > 0 and P > 0.
    """
    infima = [inf for scan in (scan_m2, scan_m3) for inf in scan.infimum_cache.values() if inf.converged]
    max_value = max(inf.value for inf in infima)
    min_kinetic = min(inf.energy.kinetic for inf in infima)
    min_interaction = min(inf.energy.interaction for inf in infima)
    ok = max_value < -10 * TOL and min_kinetic > 0 and min_interaction > 0
    report(
        "infimum-negativity",
        ok,
        f"max scan energy {max_value:.6g} < {-10 * TOL:g}; over {len(infima)} infima "
        f"min K {min_kinetic:.6g} > 0, min P {min_interaction:.6g} > 0",
    )


def test_multiplier_positivity(scan_m2, scan_m3):
    """Every converged scan run has strictly positive multipliers."""
    worst = np.inf
    runs = 0
    for inf in list(scan_m2.infimum_cache.values()) + list(scan_m3.infimum_cache.values()):
        if inf.converged and len(inf.multipliers):
            worst = min(worst, float(np.min(inf.multipliers)))
            runs += 1
    report("multiplier-positivity", worst > 0, f"min lambda over {runs} runs = {worst:.6g}")


def test_phase_factorization(gs_m2_complex):
    """Complex-seeded minimisers factor into a phase times a positive profile."""
    pf = hf.phase_factorize(gs_m2_complex.fields)
    worst_dev = float(pf.deviation.max())
    worst_min = float(pf.positive_part.data.real.min())
    ok = worst_dev <= 1e-6 and worst_min > 0
    report(
        "phase-factorization",
        ok,
        f"max deviation {worst_dev:.3e} (tol 1e-6), min aligned value {worst_min:.3e} > 0",
    )


def test_strict_subadditivity(scan_m2, scan_m3):
    """I(M) + I(T) - I(M+T) > 10 tol on the default m=2 grid and m=3 cases."""
    assert not scan_m2.excluded and not scan_m3.excluded
    margins = [r.margin for r in scan_m2.records + scan_m3.records]
    ok = len(scan_m2.records) == 56 and len(scan_m3.records) == 7 and min(margins) > 10 * TOL
    report(
        "strict-subadditivity",
        ok,
        f"{len(margins)} pairs, min margin {min(margins):.6g} > {10 * TOL:g}",
    )


def test_gamma_scaling(desk_kernel, gs_m2):
    """The scaling gap is positive and equals (Gamma^p - Gamma) F_2p exactly."""
    comp = gs_m2.fields.components[0]
    worst_gap, worst_identity = np.inf, 0.0
    for gamma in (1.1, 1.5, 2.0):
        delta, pair_term = hf.strict_scaling_check(comp, gamma, desk_kernel, 2.0)
        worst_gap = min(worst_gap, delta)
        worst_identity = max(worst_identity, abs(delta - (gamma**2.0 - gamma) * pair_term))
    ok = worst_gap > 0 and worst_identity <= 1e-12
    report(
        "gamma-scaling",
        ok,
        f"min gap {worst_gap:.6g} > 0, identity error {worst_identity:.3e} (tol 1e-12)",
    )


def test_cross_term_negativity(desk_params, desk_kernel, gs_m2):
    """Both single energies lie below the cross pair term on the m=2 minimiser."""
    v1, v2 = hf.cross_term_check(gs_m2, desk_kernel, desk_params.power)
    report("cross-term-negativity", v1 < 0 and v2 < 0, f"values ({v1:.6g}, {v2:.6g}) < 0")


def test_conservation(desk_params, desk_kernel, gs_m2, standing_trace):
    """Mass is conserved to 1e-10 over T=5 and the energy drift is second order."""
    mass_drift = standing_trace.mass_drift
    pert = hf.analysis.random_h1_perturbation(gs_m2.fields.grid, 2, 42)
    start = hf.project_masses(
        hf.MultiField(gs_m2.fields.grid, gs_m2.fields.data + 0.05 * pert.data), [1.0, 1.0]
    )
    drifts = [
        hf.evolve(start, 0.5, dt, desk_kernel, desk_params.power, record_every=50).energy_drift
        for dt in (2e-3, 1e-3)
    ]
    order = float(np.log2(drifts[0] / drifts[1]))
    ok = mass_drift <= 1e-10 and 1.8 <= order <= 2.2
    report(
        "conservation",
        ok,
        f"mass drift {mass_drift:.3e} (tol 1e-10), energy order {order:.3f} in [1.8, 2.2]",
    )


def test_standing_wave_fidelity(gs_m2, standing_trace):
    """Moduli stay fixed over T=5 and the overlap phase rotates at -lambda_j."""
    modulus_sup = float(np.max(standing_trace.modulus_error))
    worst_rate = 0.0
    for j in range(2):
        phase = np.unwrap(np.angle(standing_trace.overlaps[:, j]))
        rate = np.polyfit(standing_trace.times, phase, 1)[0]
        worst_rate = max(worst_rate, abs(rate + gs_m2.multipliers[j]) / gs_m2.multipliers[j])
    ok = modulus_sup <= 1e-4 and worst_rate <= 1e-2
    report(
        "standing-wave-fidelity",
        ok,
        f"sup modulus error {modulus_sup:.3e} (tol 1e-4), phase-rate rel err {worst_rate:.3e} (tol 1e-2)",
    )


def test_orbital_stability(stability_entries):
    """Perturbed states stay within 10 eps of the orbit; ratios do not blow up."""
    entries = {e.epsilon: e for e in stability_entries}
    small, large = entries[1e-3], entries[1e-2]
    ok = (
        small.max_distance <= 10 * 1e-3
        and large.max_distance <= 10 * 1e-2
        and small.ratio <= 2 * large.ratio
    )
    report(
        "orbital-stability",
        ok,
        f"sup distance / eps: {small.ratio:.3f} at 1e-3, {large.ratio:.3f} at 1e-2 "
        f"(bound 10, monotone within factor 2)",
    )


def test_tightness_and_box_bias(desk_params, desk_kernel, gs_m2):
    """Minimiser mass concentrates in a quarter box; doubling L barely moves the energy."""
    grid = gs_m2.fields.grid
    q_quarter = float(hf.concentration_profile(gs_m2.fields, np.array([grid.box_length / 4]))[0])
    big = replace(desk_params, box_length=80.0, points_per_dim=512)
    big_kernel = hf.build_kernel(hf.grid_for(big), big.kernel_exponent)
    gs_big = hf.ground_state(big, big_kernel, tol=TOL, seed=1)
    rel_change = abs(gs_big.energy.total - gs_m2.energy.total) / abs(gs_m2.energy.total)
    ok = q_quarter >= 0.99 * desk_params.total_mass and gs_big.converged and rel_change <= 1e-4
    report(
        "tightness-and-box-bias",
        ok,
        f"Q(L/4) = {q_quarter:.8g} >= {0.99 * desk_params.total_mass}, "
        f"double-box energy change {rel_change:.3e} (tol 1e-4)",
    )
