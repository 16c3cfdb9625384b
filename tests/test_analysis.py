import numpy as np
import pytest
from dataclasses import replace

import hartreeflow as hf
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
        q = hf.concentration_profile(mf, radii)
        assert np.all(np.diff(q) >= -1e-12)
        assert q[0] < 2.0
        assert q[-1] == pytest.approx(2.0, rel=1e-10)

    def test_two_separated_bumps_plateau(self, setup128):
        # equal bumps of mass 1 separated by 20: Q ~ 1 for radii between the
        # bump width and half the separation, by direct construction
        _, grid, _ = setup128
        a = gaussian_field(grid, sigma=1.0, mass_value=1.0, center=[-10.0])
        b = gaussian_field(grid, sigma=1.0, mass_value=1.0, center=[10.0])
        mf = hf.MultiField(grid, a.data + b.data)
        mid = hf.concentration_profile(mf, np.array([5.0]))
        assert mid[0] == pytest.approx(1.0, abs=1e-6)
        full = hf.concentration_profile(mf, np.array([grid.box_length / 2]))
        assert full[0] == pytest.approx(2.0, rel=1e-6)

    def test_ground_state_tight(self, gs_m2):
        grid = gs_m2.fields.grid
        q = hf.concentration_profile(gs_m2.fields, np.array([grid.box_length / 4]))
        assert q[0] >= 0.99 * 2.0

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
        assert origin[0] == pytest.approx(grid.cell_volume * np.max(np.abs(mf.data) ** 2), rel=1e-12)


class TestStrictScaling:
    def test_identity_p2(self, desk_params, desk_kernel, gs_m2):
        # for p = 2, Gamma = 2: the gap equals 2 F_4(u, u) exactly
        comp = gs_m2.fields.components[0]
        delta, pair_term = hf.strict_scaling_check(comp, 2.0, desk_kernel, 2.0)
        assert delta == pytest.approx(2.0 * pair_term, abs=1e-12)

    def test_gap_vanishes_at_unit_scale(self, desk_kernel, gs_m2):
        comp = gs_m2.fields.components[0]
        delta, pair_term = hf.strict_scaling_check(comp, 1.0 + 1e-9, desk_kernel, 2.0)
        assert abs(delta) <= 1e-8 * pair_term

    def test_strictly_positive_on_minimiser(self, desk_kernel, gs_m2):
        comp = gs_m2.fields.components[0]
        for gamma in (1.1, 1.5, 2.0):
            delta, pair_term = hf.strict_scaling_check(comp, gamma, desk_kernel, 2.0)
            assert delta > 0
            expected = (gamma**2.0 - gamma) * pair_term
            assert abs(delta - expected) <= 1e-12

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
        scan = hf.subadditivity_scan(pairs, params, kernel, solver=hf.SolverConfig(tol=1e-5, seeds=1))
        assert len(scan.records) == 2 and not scan.excluded
        for rec in scan.records:
            assert rec.converged
            assert rec.margin > 1e-4

    def test_zero_component_case_margin_exceeds_coupling_gain(self, setup128):
        # with M = (0, 1), T = (1, 0) the margin is at least the pair energy of
        # the two single-component minimisers placed as a product state
        params, _, kernel = setup128
        scan = hf.subadditivity_scan(
            [((0.0, 1.0), (1.0, 0.0))], params, kernel, solver=hf.SolverConfig(tol=1e-5, seeds=1)
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
            [((0.5, 0.5), (0.5, 0.5))], params, kernel, solver=hf.SolverConfig(tol=1e-12, max_iters=3, seeds=1)
        )
        assert not scan.records
        assert len(scan.excluded) == 1
        assert not scan.excluded[0].converged
        assert [inf.stop_reasons for inf in scan.excluded[0].infima] == [("max_iters",)] * 3

    def test_invalid_pairs_rejected(self, setup128, monkeypatch):
        params, _, kernel = setup128
        with pytest.raises(ValueError):
            hf.subadditivity_scan([((0.0, 0.0), (1.0, 1.0))], params, kernel)
        with pytest.raises(ValueError):
            hf.subadditivity_scan([((0.0, 1.0), (0.0, 1.0))], params, kernel)
        # pairs that cannot be scored are named, before any solve: M + T would be
        # truncated to the shorter vector, a negative mass dropped, a NaN margin reported
        monkeypatch.setattr(hf.analysis, "ground_state", None)
        nan, inf = float("nan"), float("inf")
        for pair in [((0.5, 0.5), (0.5, 0.5, 0.5)), ((-0.5, 1.0), (1.0, 1.0)), ((nan, 1.0), (1.0, 1.0)),
                     ((1.0, 1.0), (inf, 1.0))]:
            with pytest.raises(ValueError) as info:
                hf.subadditivity_scan([pair], params, kernel)
            assert str(pair) in str(info.value)

    def test_zero_seeds_rejected(self):
        # the scan's seed count is SolverConfig's, which refuses anything but a
        # positive int: a float used to fail inside range() and True to count as one seed
        for bad in (0, -1, 2.0, True):
            with pytest.raises(hf.InvalidParameterError, match="seeds must be"):
                hf.SolverConfig(seeds=bad)

    def test_infimum_value_rejects_the_masses_a_scan_rejects(self, setup128, monkeypatch):
        # a negative or NaN entry used to be dropped, returning I of the other masses
        params, _, kernel = setup128
        monkeypatch.setattr(hf.analysis, "ground_state", None)
        nan, inf = float("nan"), float("inf")
        for masses in [(-1.0, 1.0), (nan, 1.0), (1.0, inf), (0.0, 0.0)]:
            with pytest.raises(ValueError) as single:
                hf.infimum_value(masses, params, kernel)
            with pytest.raises(ValueError) as scan:
                hf.subadditivity_scan([(masses, (1.0, 1.0))], params, kernel)
            assert str(masses) in str(single.value)
            assert str(single.value) in str(scan.value)

    def test_infimum_value_keeps_a_tiny_positive_mass(self, setup128):
        # rounding to 12 decimal places made 1e-13 a zero mass, which the solve rejected
        params, _, kernel = setup128
        assert hf.analysis._infimum_key((1.0, 1e-300)) == (1e-300, 1.0)
        tiny = hf.infimum_value((1e-13, 1.0), params, kernel)
        assert tiny.converged and len(tiny.multipliers) == 2
        # the p = 2 reduction: I(M_1, M_2) = I_1(M_1 + M_2)
        assert tiny.value == pytest.approx(hf.infimum_value((1.0,), params, kernel).value, rel=1e-10)

    def test_default_m2_grid_shape(self):
        pairs = hf.default_pairs(2)
        assert len(pairs) == 56
        for mv, tv in pairs:
            assert any(v > 0 for v in mv) and any(v > 0 for v in tv)
            assert mv[0] + tv[0] > 0 and mv[1] + tv[1] > 0

    def test_default_m3_cases(self):
        pairs = hf.default_pairs(3, seed=0)
        assert len(pairs) == 7
        for mv, tv in pairs:
            assert all(a + b > 0 for a, b in zip(mv, tv))
        # the two seeded pairs: M is drawn before T, each entry rounded to 3 places
        assert pairs[5:] == [
            ((0.91, 0.616, 0.433), (0.413, 1.051, 1.13)),
            ((0.885, 0.984, 0.835), (1.148, 1.053, 0.402)),
        ]
        other = hf.default_pairs(3, seed=7)
        assert other[:5] == pairs[:5] and other[5:] != pairs[5:]

    def test_default_m1_pairs_and_unknown_component_counts(self):
        assert hf.default_pairs(1) == [((0.5,), (0.5,)), ((1.0,), (1.0,)), ((0.5,), (1.0,))]
        for m in (0, 4):
            with pytest.raises(ValueError, match="1, 2 or 3 components"):
                hf.default_pairs(m)


class TestMassScalingOfSingleEnergy:
    def test_doubling_mass_strictly_lowers_energy(self, setup128):
        # I at mass Gamma M sits below Gamma I at mass M (both negative)
        params, _, kernel = setup128
        i1 = hf.infimum_value((1.0,), params, kernel, solver=hf.SolverConfig(tol=1e-5, seeds=1))
        i2 = hf.infimum_value((2.0,), params, kernel, solver=hf.SolverConfig(tol=1e-5, seeds=1))
        assert i1.converged and i2.converged
        assert i2.value < 2 * i1.value < i1.value < 0


class TestStabilityExperiment:
    def test_report_structure_and_bounds(self, stability_entries):
        eps = [e.epsilon for e in stability_entries]
        assert eps == [0.0, 1e-3, 1e-2]
        unperturbed = stability_entries[0]
        assert unperturbed.max_distance <= 1e-4
        for entry in stability_entries[1:]:
            assert entry.max_distance <= 10 * entry.epsilon
            assert not entry.trace.unstable

    def test_unconverged_input_rejected(self, desk_params, desk_kernel):
        bad = hf.ground_state(desk_params, desk_kernel, seed=0, tol=1e-12, max_iters=2)
        with pytest.raises(ValueError):
            hf.stability_experiment(bad, [1e-3], 0.1, 1e-2, desk_kernel, desk_params.power)

    def test_negative_epsilon_rejected(self, gs_m2, desk_params, desk_kernel):
        with pytest.raises(ValueError):
            hf.stability_experiment(gs_m2, [-1e-3], 0.1, 1e-2, desk_kernel, desk_params.power)

    def test_empty_eps_list_rejected_before_any_start(self, monkeypatch, gs_m2, desk_params, desk_kernel):
        built = []
        perturbation = hf.analysis.random_h1_perturbation
        monkeypatch.setattr(hf.analysis, "random_h1_perturbation",
                            lambda *args: built.append(1) or perturbation(*args))
        with pytest.raises(ValueError, match="eps_list is empty"):
            hf.stability_experiment(gs_m2, [], 0.1, 1e-2, desk_kernel, desk_params.power)
        assert built == []

    def test_negative_epsilon_rejected_before_any_step(self, monkeypatch, gs_m2, desk_params, desk_kernel):
        steps = []
        step_array = Propagator.step_array
        monkeypatch.setattr(Propagator, "step_array", lambda prop, x: steps.append(1) or step_array(prop, x))
        for bad in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                hf.stability_experiment(gs_m2, [0.0, bad], 0.1, 1e-2, desk_kernel, desk_params.power)
        assert steps == []


def _assert_scan_matches_solo_solves(params, kernel, pairs, monkeypatch):
    """Run a 2-seed scan of pairs, check every key against its solo solves, return the spied call sizes."""
    calls = []
    stacked = hf.analysis.ground_state

    def spy(problems, *args, **kwargs):
        calls.append(len(problems))
        return stacked(problems, *args, **kwargs)

    monkeypatch.setattr(hf.analysis, "ground_state", spy)
    scan = hf.subadditivity_scan(pairs, params, kernel, solver=hf.SolverConfig(tol=1e-5, seeds=2), base_seed=3)
    monkeypatch.undo()

    expected = {}
    for key in scan.infimum_cache:
        seeds = tuple(hf.analysis._stable_seed(key, 3, i) for i in range(2))
        runs = [
            hf.ground_state(replace(params, component_count=len(key), masses=key), kernel, tol=1e-5, seed=s)
            for s in seeds
        ]
        best = min(runs, key=lambda gs: gs.energy.total)
        expected[key] = hf.Infimum(best.energy, best.multipliers, seeds, tuple(gs.stop_reason for gs in runs))
    assert list(scan.infimum_cache) == list(expected)
    for key, want in expected.items():
        for got in (scan.infimum_cache[key],
                    hf.infimum_value(key, params, kernel, solver=hf.SolverConfig(tol=1e-5, seeds=2), base_seed=3)):
            assert (got.energy, got.seeds, got.stop_reasons) == (want.energy, want.seeds, want.stop_reasons)
            assert got.value == got.energy.total
            assert np.array_equal(got.multipliers, want.multipliers)
    for rec in scan.records:
        i_m, i_t, i_s = (expected[hf.analysis._infimum_key(v)].value for v in (rec.masses_m, rec.masses_t,
                         tuple(a + b for a, b in zip(rec.masses_m, rec.masses_t))))
        assert rec.margin == i_m + i_t - i_s
    return calls


class TestStackedScan:
    def test_scan_matches_solo_solves_per_key(self, setup128, monkeypatch):
        params, _, kernel = setup128
        pairs = [((0.5, 0.5), (0.5, 0.5)), ((0.0, 1.0), (1.0, 0.0)), ((0.5, 0.0), (0.5, 1.0))]
        calls = _assert_scan_matches_solo_solves(params, kernel, pairs, monkeypatch)
        assert calls == [6, 4]  # one call per component count: 3 keys of m=2, then 2 of m=1, 2 seeds each

    def test_scan_matches_solo_solves_per_key_2d(self, monkeypatch):
        # the sample pair of check-lemmas at its 2D parameters (n=64, 8,192 points per
        # m=2 member): the 4 seeded runs of its 2 keys are solved two to a call.
        # check-lemmas itself solves only I(M/2)'s two; I(M) is its reference state
        params = hf.SystemParams(
            space_dim=2, component_count=2, power=2.0, kernel_exponent=1.0,
            masses=(1.0, 1.0), box_length=40.0, points_per_dim=64,
        )
        kernel = hf.build_kernel(hf.grid_for(params), 1.0)
        calls = _assert_scan_matches_solo_solves(params, kernel, [((0.5, 0.5), (0.5, 0.5))], monkeypatch)
        assert calls == [2, 2]

    def test_scan_calls_respect_the_stack_cap(self, setup128, monkeypatch):
        params, grid, kernel = setup128
        sizes = []
        stacked = hf.analysis.ground_state

        def spy(problems, *args, **kwargs):
            sizes.append((len(problems), problems[0].component_count))
            return stacked(problems, *args, **kwargs)

        monkeypatch.setattr(hf.analysis, "ground_state", spy)
        # the default m=2 grid: 2 keys of m=1 and 10 of m=2, at 3 seeds each
        hf.subadditivity_scan(hf.default_pairs(2), params, kernel, solver=hf.SolverConfig(tol=1e-3, seeds=3))
        cap = hf.minimize._STACK_POINTS
        assert all(b * m * grid.total_points <= cap for b, m in sizes)
        assert sizes == [(6, 1), (30, 2)]

    @pytest.mark.parametrize(
        "seeds, calls",
        [(1, [(2, 1), (10, 2)]), (2, [(4, 1), (20, 2)]), (3, [(6, 1), (30, 2)])],
        ids=["seeds1", "seeds2", "seeds3"],
    )
    def test_reference_scan_solves_each_component_count_in_one_call(
        self, desk_params, desk_kernel, monkeypatch, seeds, calls
    ):
        # the default m=2 scan at the reference grid (n=256): every run of one
        # component count in one call up to 3 seeds (30 m=2 runs of 512 points)
        sizes = []
        stacked = hf.analysis.ground_state

        def spy(problems, *args, **kwargs):
            sizes.append((len(problems), problems[0].component_count))
            return stacked(problems, *args, **kwargs)

        monkeypatch.setattr(hf.analysis, "ground_state", spy)
        scan = hf.subadditivity_scan(hf.default_pairs(2), desk_params, desk_kernel, solver=hf.SolverConfig(tol=1e-6, seeds=seeds))
        assert sizes == calls
        assert not scan.excluded
