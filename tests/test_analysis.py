import numpy as np
import pytest
from dataclasses import replace

import hartreeflow as hf
from hartreeflow.analysis import BoxOverflowError, NoNegativeEnergyError
from hartreeflow.evolve import Propagator
from conftest import gaussian_field


@pytest.fixture()
def setup128():
    params = hf.SystemParams(
        space_dim=1, component_count=2, power=2.0, kernel_exponent=0.5,
        masses=(1.0, 1.0), box_length=40.0, points_per_dim=128,
    )
    grid = hf.grid_for(params)
    return params, grid, hf.build_kernel(grid, 0.5)


class TestConcentrationProfile:
    def test_single_bump_exhaustion(self, setup128):
        _, grid, _ = setup128
        mf = gaussian_field(grid, sigma=1.5, mass_value=2.0)
        radii = np.linspace(grid.spacing, grid.box_length / 2, 30)
        prof = hf.concentration_profile(mf, radii)
        assert np.all(np.diff(prof.q_values) >= -1e-12)
        assert prof.q_values[0] < 2.0
        assert prof.q_values[-1] == pytest.approx(2.0, rel=1e-10)

    def test_two_separated_bumps_plateau(self, setup128):
        # equal bumps of mass 1 separated by 20: Q ~ 1 for radii between the
        # bump width and half the separation, by direct construction
        _, grid, _ = setup128
        a = gaussian_field(grid, sigma=1.0, mass_value=1.0, center=[-10.0])
        b = gaussian_field(grid, sigma=1.0, mass_value=1.0, center=[10.0])
        mf = hf.MultiField(grid, a.data + b.data)
        mid = hf.concentration_profile(mf, np.array([5.0]))
        assert mid.q_values[0] == pytest.approx(1.0, abs=1e-6)
        full = hf.concentration_profile(mf, np.array([grid.box_length / 2]))
        assert full.q_values[0] == pytest.approx(2.0, rel=1e-6)

    def test_ground_state_tight(self, gs_m2):
        grid = gs_m2.fields.grid
        prof = hf.concentration_profile(gs_m2.fields, np.array([grid.box_length / 4]))
        assert prof.q_values[0] >= 0.99 * 2.0

    def test_radii_validation(self, setup128):
        _, grid, _ = setup128
        mf = gaussian_field(grid, 1.0)
        with pytest.raises(ValueError):
            hf.concentration_profile(mf, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            hf.concentration_profile(mf, np.array([grid.box_length]))
        for bad in ([np.nan], [np.inf], [-1.0, 2.0], [0.5, np.nan]):
            with pytest.raises(ValueError, match="radii must be finite and nonnegative"):
                hf.concentration_profile(mf, bad)
        # R = 0 is the origin cell: the largest single-cell mass
        origin = hf.concentration_profile(mf, [0.0, 1.0])
        assert origin.q_values[0] == pytest.approx(grid.cell_volume * np.max(np.abs(mf.data) ** 2), rel=1e-12)


class TestScalingNegativity:
    def test_finds_negative_theta(self, desk_params, desk_kernel, desk_grid):
        u1 = gaussian_field(desk_grid, sigma=1.5, mass_value=1.0)
        res = hf.scaling_negativity_test(desk_params, u1, np.linspace(0.4, 1.0, 13), desk_kernel)
        assert res.energy_at_star < 0
        assert 0.4 <= res.theta_star <= 1.0

    def test_theta_one_matches_total_energy(self, desk_params, desk_kernel, desk_grid):
        u1 = gaussian_field(desk_grid, sigma=1.5, mass_value=1.0)
        res = hf.scaling_negativity_test(desk_params, u1, np.array([0.7, 1.0]), desk_kernel)
        mf = hf.MultiField(desk_grid, np.concatenate([u1.data, u1.data]))
        direct = hf.total_energy(mf, desk_kernel, desk_params.power).total
        assert res.energies[-1] == pytest.approx(direct, rel=1e-12)

    def test_kinetic_scales_quadratically(self, desk_params, desk_kernel, desk_grid):
        u1 = gaussian_field(desk_grid, sigma=1.5, mass_value=1.0)
        res = hf.scaling_negativity_test(desk_params, u1, np.linspace(0.4, 1.0, 13), desk_kernel)
        slope = np.polyfit(np.log(res.thetas), np.log(res.kinetics), 1)[0]
        assert abs(slope - 2.0) <= 1e-3 * 2.0

    def test_dilation_lower_bound_on_interaction(self, desk_params, desk_kernel, desk_grid):
        # I(u^theta) <= theta^2/2 sum ||grad u_j||^2
        #              - Omega theta^(Np - 2N + alpha) int (W * |u_1|^p) |u_1|^p
        # with Omega collecting the mass ratios; verified pointwise on the grid
        u1 = gaussian_field(desk_grid, sigma=1.5, mass_value=1.0)
        res = hf.scaling_negativity_test(desk_params, u1, np.linspace(0.4, 1.0, 13), desk_kernel)
        p = desk_params.power
        # Omega = 1/(2p) + (1/p) sum_{j>=2} r_j + 1/(2p) (sum_{j>=2} r_j)^2, r_j = (M_j/M_1)^(p/2)
        masses = np.asarray(desk_params.masses)
        ratios = np.sum((masses[1:] / masses[0]) ** (p / 2))
        omega = 1 / (2 * p) + ratios / p + ratios**2 / (2 * p)
        assert omega == pytest.approx(1.0)  # masses (1,1), p=2: 1/4 + 1/2 + 1/4
        base_interaction = p * hf.pair_interaction(p, u1, u1, desk_kernel, p)
        kin = hf.grad_norm_sq(u1) * len(desk_params.masses)
        n_dim = desk_params.space_dim
        expo = n_dim * p - 2 * n_dim + desk_params.kernel_exponent
        for theta, energy in zip(res.thetas, res.energies):
            bound = 0.5 * theta**2 * kin - omega * theta**expo * base_interaction
            assert energy <= bound + 1e-9 * abs(bound)

    def test_box_overflow_raises(self, desk_params, desk_kernel, desk_grid):
        wide = gaussian_field(desk_grid, sigma=4.0, mass_value=1.0)
        with pytest.raises(BoxOverflowError):
            hf.scaling_negativity_test(desk_params, wide, np.array([0.2, 1.0]), desk_kernel)

    def test_no_negative_energy_raises(self, desk_params, desk_kernel, desk_grid):
        # a tiny-mass profile keeps the energy positive on a theta grid near 1
        small = replace(desk_params, masses=(1e-4, 1e-4))
        u1 = gaussian_field(desk_grid, sigma=1.5, mass_value=1e-4)
        with pytest.raises(NoNegativeEnergyError):
            hf.scaling_negativity_test(small, u1, np.array([0.9, 1.0]), desk_kernel)

    def test_wrong_mass_rejected(self, desk_params, desk_kernel, desk_grid):
        u1 = gaussian_field(desk_grid, sigma=1.5, mass_value=0.5)
        with pytest.raises(ValueError):
            hf.scaling_negativity_test(desk_params, u1, np.array([1.0]), desk_kernel)
        pair = hf.MultiField(desk_grid, np.concatenate([u1.data, u1.data]))
        with pytest.raises(ValueError, match="one component"):
            hf.scaling_negativity_test(desk_params, pair, np.array([1.0]), desk_kernel)


class TestStrictScaling:
    def test_identity_p2(self, desk_params, desk_kernel, gs_m2):
        # for p = 2, Gamma = 2: the gap equals 2 F_4(u, u) exactly
        comp = gs_m2.fields.components[0]
        res = hf.strict_scaling_check(comp, 2.0, desk_kernel, 2.0)
        assert res.delta_observed == pytest.approx(2.0 * res.pair_term, abs=1e-12)

    def test_gap_vanishes_at_unit_scale(self, desk_kernel, gs_m2):
        comp = gs_m2.fields.components[0]
        res = hf.strict_scaling_check(comp, 1.0 + 1e-9, desk_kernel, 2.0)
        assert abs(res.delta_observed) <= 1e-8 * res.pair_term

    def test_strictly_positive_on_minimiser(self, desk_kernel, gs_m2):
        comp = gs_m2.fields.components[0]
        for gamma in (1.1, 1.5, 2.0):
            res = hf.strict_scaling_check(comp, gamma, desk_kernel, 2.0)
            assert res.delta_observed > 0
            expected = (gamma**2.0 - gamma) * res.pair_term
            assert abs(res.delta_observed - expected) <= 1e-12
        assert "p=2" in hf.strict_scaling_check(comp, 1.5, desk_kernel, 2.0).note

    def test_rejects_scale_below_one(self, desk_kernel, gs_m2):
        with pytest.raises(ValueError):
            hf.strict_scaling_check(gs_m2.fields.components[0], 1.0, desk_kernel, 2.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="scale must be finite and exceed 1"):
                hf.strict_scaling_check(gs_m2.fields.components[0], bad, desk_kernel, 2.0)


class TestCrossTerm:
    def test_both_negative_on_minimiser(self, desk_params, desk_kernel, gs_m2):
        v1, v2 = hf.cross_term_check(gs_m2, desk_kernel, desk_params.power)
        assert v1 < 0 and v2 < 0

    def test_symmetric_masses_agree(self, desk_params, desk_kernel):
        # identical components stay identical along the flow from a symmetric start
        grid = hf.grid_for(desk_params)
        bump = gaussian_field(grid, sigma=2.0, mass_value=1.0)
        init = hf.MultiField(grid, np.concatenate([bump.data, bump.data]))
        gs = hf.ground_state(desk_params, desk_kernel, init=init, tol=1e-6)
        v1, v2 = hf.cross_term_check(gs, desk_kernel, desk_params.power)
        assert abs(v1 - v2) <= 1e-6 * abs(v1)

    def test_zero_kernel_counterfactual_positive(self, desk_params, gs_m2):
        # without attraction the value is the positive kinetic term, so the
        # negativity of the real check is not vacuous
        zero = hf.Kernel.zero(gs_m2.fields.grid)
        v1, v2 = hf.cross_term_check(gs_m2, zero, desk_params.power)
        comp = gs_m2.fields.components[0]
        assert v1 == pytest.approx(0.5 * hf.grad_norm_sq(comp), rel=1e-10)
        assert v1 > 0 and v2 > 0

    def test_unconverged_rejected(self, desk_params, desk_kernel):
        gs = hf.ground_state(desk_params, desk_kernel, seed=0, tol=1e-12, max_iters=2)
        with pytest.raises(ValueError):
            hf.cross_term_check(gs, desk_kernel, desk_params.power)


class TestSubadditivityScan:
    def test_small_scan_positive_margins(self, setup128):
        params, _, kernel = setup128
        pairs = [((0.5, 0.5), (0.5, 0.5)), ((0.0, 1.0), (1.0, 0.0))]
        scan = hf.subadditivity_scan(pairs, params, kernel, tol=1e-5, seeds_per_value=1)
        assert len(scan.records) == 2 and not scan.excluded
        for rec in scan.records:
            assert rec.converged
            assert rec.margin > 1e-4

    def test_zero_component_case_margin_exceeds_coupling_gain(self, setup128):
        # with M = (0, 1), T = (1, 0) the margin is at least the pair energy of
        # the two single-component minimisers placed as a product state
        params, _, kernel = setup128
        scan = hf.subadditivity_scan(
            [((0.0, 1.0), (1.0, 0.0))], params, kernel, tol=1e-5, seeds_per_value=1
        )
        rec = scan.records[0]
        single = replace(params, component_count=1, masses=(1.0,))
        a = hf.ground_state(single, kernel, tol=1e-5, seed=11)
        b = hf.ground_state(single, kernel, tol=1e-5, seed=12)
        gain = hf.pair_interaction(
            params.power, a.fields.components[0], b.fields.components[0], kernel, params.power
        )
        assert rec.margin >= 0.95 * gain > 0

    def test_unconverged_runs_excluded(self, setup128):
        params, _, kernel = setup128
        scan = hf.subadditivity_scan(
            [((0.5, 0.5), (0.5, 0.5))], params, kernel, tol=1e-12, max_iters=3, seeds_per_value=1
        )
        assert not scan.records
        assert len(scan.excluded) == 1
        assert not scan.excluded[0].converged

    def test_invalid_pairs_rejected(self, setup128):
        params, _, kernel = setup128
        with pytest.raises(ValueError):
            hf.subadditivity_scan([((0.0, 0.0), (1.0, 1.0))], params, kernel)
        with pytest.raises(ValueError):
            hf.subadditivity_scan([((0.0, 1.0), (0.0, 1.0))], params, kernel)

    def test_zero_seeds_per_value_rejected(self, setup128):
        params, _, kernel = setup128
        with pytest.raises(ValueError, match="seeds_per_value"):
            hf.subadditivity_scan([((1.0, 0.0), (0.0, 1.0))], params, kernel, seeds_per_value=0)
        with pytest.raises(ValueError, match="seeds_per_value"):
            hf.infimum_value((1.0, 1.0), params, kernel, seeds_per_value=0)

    def test_default_m2_grid_shape(self):
        pairs = hf.default_mass_pairs_m2()
        assert len(pairs) == 56
        for mv, tv in pairs:
            assert any(v > 0 for v in mv) and any(v > 0 for v in tv)
            assert mv[0] + tv[0] > 0 and mv[1] + tv[1] > 0

    def test_default_m3_cases(self):
        cases = hf.default_cases_m3(seed=0, extra_random=2)
        assert len(cases) == 7
        names = [c[0] for c in cases]
        assert names[:5] == ["A9", "A3", "B3", "B5", "B2"]
        for _, mv, tv in cases:
            assert all(a + b > 0 for a, b in zip(mv, tv))


class TestMassScalingOfSingleEnergy:
    def test_doubling_mass_strictly_lowers_energy(self, setup128):
        # I at mass Gamma M sits below Gamma I at mass M (both negative)
        params, _, kernel = setup128
        e1, c1, _, _ = hf.infimum_value((1.0,), params, kernel, tol=1e-5, seeds_per_value=1)
        e2, c2, _, _ = hf.infimum_value((2.0,), params, kernel, tol=1e-5, seeds_per_value=1)
        assert c1 and c2
        assert e2 < 2 * e1 < e1 < 0


class TestStabilityExperiment:
    def test_report_structure_and_bounds(self, stability_report):
        eps = [e.epsilon for e in stability_report.entries]
        assert eps == [0.0, 1e-3, 1e-2]
        unperturbed = stability_report.entries[0]
        assert unperturbed.max_distance <= 1e-4
        for entry in stability_report.entries[1:]:
            assert entry.max_distance <= 10 * entry.epsilon
            assert not entry.flags

    def test_unconverged_input_rejected(self, desk_params, desk_kernel):
        bad = hf.ground_state(desk_params, desk_kernel, seed=0, tol=1e-12, max_iters=2)
        with pytest.raises(ValueError):
            hf.stability_experiment(bad, [1e-3], 0.1, 1e-2, desk_kernel, desk_params.power)

    def test_negative_epsilon_rejected(self, gs_m2, desk_params, desk_kernel):
        with pytest.raises(ValueError):
            hf.stability_experiment(gs_m2, [-1e-3], 0.1, 1e-2, desk_kernel, desk_params.power)

    def test_negative_epsilon_rejected_before_any_step(self, monkeypatch, gs_m2, desk_params, desk_kernel):
        steps = []
        step_array = Propagator.step_array
        monkeypatch.setattr(Propagator, "step_array", lambda prop, x: steps.append(1) or step_array(prop, x))
        for bad in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                hf.stability_experiment(gs_m2, [0.0, bad], 0.1, 1e-2, desk_kernel, desk_params.power)
        assert steps == []


class TestStackedScan:
    def test_scan_matches_solo_solves_per_key(self, setup128, monkeypatch):
        params, _, kernel = setup128
        calls = []
        stacked = hf.analysis.ground_state

        def spy(problems, *args, **kwargs):
            calls.append(len(problems))
            return stacked(problems, *args, **kwargs)

        monkeypatch.setattr(hf.analysis, "ground_state", spy)
        pairs = [((0.5, 0.5), (0.5, 0.5)), ((0.0, 1.0), (1.0, 0.0)), ((0.5, 0.0), (0.5, 1.0))]
        scan = hf.subadditivity_scan(pairs, params, kernel, tol=1e-5, seeds_per_value=2, base_seed=3)
        assert calls == [6, 4]  # one call per component count: 3 keys of m=2, then 2 of m=1, 2 seeds each
        monkeypatch.undo()

        expected = {}
        for key in scan.infimum_cache:
            seeds = tuple(hf.analysis._stable_seed(key, 3, i) for i in range(2))
            runs = [
                hf.ground_state(replace(params, component_count=len(key), masses=key), kernel, tol=1e-5, seed=s)
                for s in seeds
            ]
            best = min(runs, key=lambda gs: gs.energy.total)
            expected[key] = (best.energy.total, all(gs.converged for gs in runs), seeds, best.multipliers)
        assert list(scan.infimum_cache) == list(expected)
        for key, (value, converged, seeds, lambdas) in expected.items():
            got = scan.infimum_cache[key]
            assert got[:3] == (value, converged, seeds)
            assert np.array_equal(got[3], lambdas)
            assert hf.infimum_value(key, params, kernel, tol=1e-5, seeds_per_value=2, base_seed=3)[:3] == got[:3]
        for rec in scan.records:
            i_m, i_t, i_s = (expected[hf.analysis._infimum_key(v)][0] for v in (rec.masses_m, rec.masses_t,
                             tuple(a + b for a, b in zip(rec.masses_m, rec.masses_t))))
            assert rec.margin == i_m + i_t - i_s

    def test_scan_calls_respect_the_stack_cap(self, setup128, monkeypatch):
        params, grid, kernel = setup128
        sizes = []
        stacked = hf.analysis.ground_state

        def spy(problems, *args, **kwargs):
            sizes.append((len(problems), problems[0].component_count))
            return stacked(problems, *args, **kwargs)

        monkeypatch.setattr(hf.analysis, "ground_state", spy)
        # the default m=2 grid: 2 keys of m=1 and 10 of m=2, at 3 seeds each
        hf.subadditivity_scan(hf.default_mass_pairs_m2(), params, kernel, tol=1e-3, seeds_per_value=3)
        cap = hf.minimize._STACK_POINTS
        assert all(b * m * grid.total_points <= cap for b, m in sizes)
        assert sizes == [(6, 1), (30, 2)]

    @pytest.mark.parametrize(
        "seeds, calls",
        [(1, [(2, 1), (10, 2)]), (2, [(4, 1), (20, 2)]), (3, [(6, 1), (24, 2), (6, 2)])],
        ids=["seeds1", "seeds2", "seeds3"],
    )
    def test_reference_scan_solves_each_component_count_in_one_call(
        self, desk_params, desk_kernel, monkeypatch, seeds, calls
    ):
        # the default m=2 scan at the reference grid (n=256): every run of one
        # component count in one call up to 3 seeds, where the m=2 runs pass the cap
        sizes = []
        stacked = hf.analysis.ground_state

        def spy(problems, *args, **kwargs):
            sizes.append((len(problems), problems[0].component_count))
            return stacked(problems, *args, **kwargs)

        monkeypatch.setattr(hf.analysis, "ground_state", spy)
        scan = hf.subadditivity_scan(hf.default_mass_pairs_m2(), desk_params, desk_kernel, tol=1e-6,
                                     seeds_per_value=seeds)
        assert sizes == calls
        assert not scan.excluded
