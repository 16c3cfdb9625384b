from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hartreeflow as hf
from hartreeflow.minimize import EnergyNanError, ZeroMassError
from conftest import TOL, gaussian_field, trig_field


@pytest.fixture()
def small_setup():
    params = hf.SystemParams(
        space_dim=1, component_count=2, power=2.0, kernel_exponent=0.5,
        masses=(1.0, 1.0), box_length=40.0, points_per_dim=128,
    )
    grid = hf.grid_for(params)
    return params, grid, hf.build_kernel(grid, 0.5)


class TestProjectMasses:
    def test_feasible_unchanged(self, small_setup):
        _, grid, _ = small_setup
        mf = hf.MultiField.from_fields([gaussian_field(grid, 2.0, 1.0), gaussian_field(grid, 3.0, 2.0)])
        out = hf.project_masses(mf, [1.0, 2.0])
        assert np.abs(out.data - mf.data).max() <= 1e-12

    def test_scaling_by_two_restored(self, small_setup):
        _, grid, _ = small_setup
        mf = hf.MultiField.from_fields([gaussian_field(grid, 2.0, 1.0)])
        doubled = hf.MultiField(grid, 2.0 * mf.data)
        out = hf.project_masses(doubled, [1.0])
        assert np.abs(out.data - mf.data).max() <= 1e-12

    def test_random_fields_projected_exactly(self, small_setup):
        _, grid, _ = small_setup
        mf = trig_field(grid, seed=3, m=2)
        out = hf.project_masses(mf, [0.7, 1.3])
        assert hf.multifield_masses(out) == pytest.approx([0.7, 1.3], rel=1e-12)

    def test_zero_mass_rejected(self, small_setup):
        _, grid, _ = small_setup
        mf = hf.MultiField(grid, np.zeros((1,) + grid.shape, dtype=complex))
        with pytest.raises(ZeroMassError):
            hf.project_masses(mf, [1.0])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_idempotent(self, seed):
        grid = hf.Grid(1, 64, 20.0)
        mf = trig_field(grid, seed=seed, m=2)
        once = hf.project_masses(mf, [1.0, 0.5])
        twice = hf.project_masses(once, [1.0, 0.5])
        assert np.abs(twice.data - once.data).max() <= 1e-12 * np.abs(once.data).max()


class TestGroundState:
    def test_reference_converges_negative_energy_positive_multipliers(self, gs_m2):
        assert gs_m2.converged
        assert gs_m2.stop_reason == "converged"
        assert gs_m2.energy.total < 0
        assert np.all(gs_m2.multipliers > 0)
        assert np.all(gs_m2.residuals >= 0)

    def test_mass_constraint_exact(self, gs_m2):
        assert hf.multifield_masses(gs_m2.fields) == pytest.approx([1.0, 1.0], rel=1e-10)

    def test_converged_init_is_fixed_point(self, desk_params, desk_kernel, gs_m2):
        again = hf.ground_state(desk_params, desk_kernel, init=gs_m2.fields, tol=TOL)
        assert again.converged
        assert again.iterations == 0

    def test_seed_independence_of_energy(self, gs_m2, gs_m2_second_seed):
        e1, e2 = gs_m2.energy.total, gs_m2_second_seed.energy.total
        assert abs(e1 - e2) <= 1e-6 * abs(e1)

    def test_self_consistent_residual(self, desk_params, desk_kernel, gs_m2):
        res = hf.el_residual(gs_m2.fields, gs_m2.multipliers, desk_kernel, desk_params.power)
        h1 = [np.sqrt(hf.h1_norm_sq(c)) for c in gs_m2.fields.components]
        assert np.all(res <= TOL * np.asarray(h1))

    def test_energy_decrease_monotone(self, small_setup):
        # re-solve while asserting monotonicity through the public energy
        params, grid, kernel = small_setup
        energies = []
        init = hf.gaussian_init(grid, params.masses, seed=9)
        gs = hf.ground_state(params, kernel, init=init, tol=1e-4)
        assert gs.converged
        assert gs.energy.total <= hf.total_energy(init, kernel, params.power).total

    def test_max_iters_flagged_not_raised(self, small_setup):
        params, _, kernel = small_setup
        gs = hf.ground_state(params, kernel, tol=1e-12, max_iters=5, seed=0)
        assert not gs.converged
        assert gs.stop_reason == "max_iters"
        assert gs.iterations == 5

    def test_stall_flagged_distinct_from_max_iters(self, desk_params, desk_kernel, gs_m2):
        # tol far below the floating-point floor of the residual: backtracking
        # finds no decreasing step long before the budget runs out
        gs = hf.ground_state(desk_params, desk_kernel, init=gs_m2.fields, tol=1e-14, max_iters=10_000)
        assert not gs.converged
        assert gs.stop_reason == "stalled"
        assert gs.iterations < 10_000

    def test_iterations_independent_of_resolution(self, desk_params):
        counts = []
        for n in (128, 256, 512):
            params = replace(desk_params, points_per_dim=n)
            kernel = hf.build_kernel(hf.grid_for(params), params.kernel_exponent)
            gs = hf.ground_state(params, kernel, tol=TOL, seed=1)
            assert gs.converged
            counts.append(gs.iterations)
        assert max(counts) <= 100, counts
        assert max(counts) <= 2 * min(counts), counts

    def test_energy_is_the_public_energy(self, desk_params, desk_kernel):
        # the minimiser and total_energy evaluate one implementation: equal bits
        gs = hf.ground_state(desk_params, desk_kernel, tol=TOL, seed=0, center=False)
        assert gs.converged
        assert gs.energy == hf.total_energy(gs.fields, desk_kernel, desk_params.power)

    def test_peak_centered(self, gs_m2):
        density = np.sum(np.abs(gs_m2.fields.data) ** 2, axis=0)
        assert int(np.argmax(density)) == gs_m2.fields.grid.points_per_dim // 2

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_energy_aborts(self, small_setup):
        params, grid, kernel = small_setup
        init = hf.gaussian_init(grid, params.masses)
        data = init.data.copy()
        data[0, 0] = np.inf  # infinite mass turns the projected state into NaN
        with pytest.raises(EnergyNanError):
            hf.ground_state(params, kernel, init=hf.MultiField(grid, data), max_iters=10)

    def test_init_shape_mismatch_rejected(self, small_setup):
        params, grid, kernel = small_setup
        bad = hf.MultiField(grid, np.ones((3,) + grid.shape, dtype=complex))
        with pytest.raises(ValueError):
            hf.ground_state(params, kernel, init=bad)


class TestExtractMultipliers:
    def test_zero_kernel_gives_negative_multiplier(self, small_setup):
        _, grid, _ = small_setup
        zero_kernel = hf.Kernel.zero(grid)
        f = gaussian_field(grid, 2.0, 1.5)
        mf = hf.MultiField.from_fields([f])
        lam = hf.extract_multipliers(mf, zero_kernel, 2.0)
        expected = -hf.grad_norm_sq(f) / hf.mass(f)
        assert lam[0] == pytest.approx(expected, rel=1e-12)
        assert lam[0] < 0

    def test_plane_wave_eigenvalue(self, small_setup):
        _, grid, _ = small_setup
        k_wave = 2 * np.pi * 4 / grid.box_length
        f = hf.Field(grid, np.exp(1j * k_wave * grid.axis_coords))
        lam = hf.extract_multipliers(hf.MultiField.from_fields([f]), hf.Kernel.zero(grid), 2.0)
        assert lam[0] == pytest.approx(-k_wave**2, rel=1e-10)

    def test_converged_state_positive(self, desk_params, desk_kernel, gs_m2):
        lam = hf.extract_multipliers(gs_m2.fields, desk_kernel, desk_params.power)
        assert np.all(lam > 0)
        assert lam == pytest.approx(gs_m2.multipliers, rel=1e-8)

    def test_zero_mass_rejected(self, small_setup):
        _, grid, kernel = small_setup
        mf = hf.MultiField(grid, np.zeros((1,) + grid.shape, dtype=complex))
        with pytest.raises(ZeroMassError):
            hf.extract_multipliers(mf, kernel, 2.0)


class TestPhaseFactorize:
    def test_constant_phase_gaussian(self, small_setup):
        _, grid, _ = small_setup
        g = gaussian_field(grid, 2.0)
        f = hf.Field(grid, np.exp(1j * np.pi / 3) * g.data)
        pf = hf.phase_factorize(f)
        assert pf.theta == pytest.approx(np.pi / 3, abs=1e-12)
        assert pf.deviation <= 1e-12

    def test_real_positive_theta_zero(self, small_setup):
        _, grid, _ = small_setup
        pf = hf.phase_factorize(gaussian_field(grid, 2.0))
        assert pf.theta == pytest.approx(0.0, abs=1e-12)

    def test_deviation_range(self, small_setup):
        _, grid, _ = small_setup
        f = trig_field(grid, seed=11).components[0]
        pf = hf.phase_factorize(f)
        assert 0.0 <= pf.deviation <= 2.0

    def test_zero_field_rejected(self, small_setup):
        _, grid, _ = small_setup
        with pytest.raises(ZeroMassError):
            hf.phase_factorize(hf.Field(grid, np.zeros(grid.shape, dtype=complex)))

    def test_complex_seeded_minimiser(self, gs_m2_complex):
        for comp in gs_m2_complex.fields.components:
            pf = hf.phase_factorize(comp)
            assert pf.deviation <= 1e-6
            assert pf.positive_part.data.real.min() > 0


class TestSingleComponentGround:
    def test_mass_one_reference(self, gs_m1):
        assert gs_m1.converged
        assert gs_m1.energy.total < 0
        assert gs_m1.multipliers[0] > 0

    def test_strictly_positive_after_alignment(self, gs_m1):
        pf = hf.phase_factorize(gs_m1.fields.components[0])
        assert pf.positive_part.data.real.min() > 0

    def test_evenness_about_peak(self, gs_m1):
        # diagnostic: sub-grid-centred reflection asymmetry should be tiny
        dev = hf.analysis.evenness_deviation(gs_m1.fields.components[0])
        assert dev <= 1e-4

    def test_rearrangement_energy_close(self, desk_params, desk_kernel, gs_m1):
        # diagnostic: the symmetric-decreasing rearrangement cannot see a much
        # lower energy than the minimiser itself
        comp = gs_m1.fields.components[0]
        e_rearranged = hf.analysis.symmetric_rearrangement_energy(comp, desk_kernel, desk_params.power)
        e_direct = hf.single_energy(comp, desk_kernel, desk_params.power)
        assert abs(e_rearranged - e_direct) <= 1e-5 * abs(e_direct)


class TestPersistence:
    def test_save_round_trip(self, tmp_path, desk_params, gs_m2):
        snap, meta = hf.save_ground_state(tmp_path / "gs", gs_m2, desk_params)
        back = hf.read_snapshot(snap)
        assert np.array_equal(back.data, gs_m2.fields.data)
        import json

        with open(meta) as fh:
            sidecar = json.load(fh)
        assert sidecar["masses"] == pytest.approx([1.0, 1.0])
        assert sidecar["lambda"] == pytest.approx(list(gs_m2.multipliers))
        assert sidecar["converged"] is True
        assert sidecar["stop_reason"] == "converged"
        assert sidecar["params"]["points_per_dim"] == 256
