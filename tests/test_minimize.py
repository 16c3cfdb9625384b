import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hartreeflow as hf
from hartreeflow import cli
from hartreeflow.cli import RunConfig, SolverConfig
from hartreeflow.minimize import EnergyNanError, ZeroMassError
from conftest import TOL, gaussian_field, trig_field


def fractional_shift(field, deltas):
    """Shift by arbitrary offsets via spectral phases; result(x) = f(x - delta)."""
    g = field.grid
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if deltas.shape != (g.space_dim,):
        raise hf.SizeMismatchError(f"expected {g.space_dim} offsets, got {deltas.shape}")
    fh = hf.grid.fftn_grid(g, field.data)
    n = g.points_per_dim
    k = g.axis_wavenumbers
    for ax, delta in enumerate(deltas):
        phase = np.exp(-1j * k * delta)
        phase[n // 2] = np.cos(k[n // 2] * delta)
        shape = [1] * g.space_dim
        shape[ax] = n
        fh = fh * phase.reshape(shape)
    return hf.MultiField(g, hf.grid.ifftn_grid(g, fh))


def evenness_deviation(f):
    """Relative L^2 asymmetry of a one-component f about its density peak (1D diagnostic).

    The peak is located to sub-grid accuracy with a three-point parabola and
    moved to x = 0 by a spectral shift before comparing f with its reflection.
    """
    g = f.grid
    if g.space_dim != 1:
        raise NotImplementedError("evenness diagnostic is implemented for 1D fields")
    amp = np.abs(f.data[0])
    i0 = int(np.argmax(amp))
    n = g.points_per_dim
    ym, y0, yp = amp[(i0 - 1) % n], amp[i0], amp[(i0 + 1) % n]
    denom = ym - 2 * y0 + yp
    frac = 0.0 if denom == 0 else 0.5 * (ym - yp) / denom
    frac = float(np.clip(frac, -0.5, 0.5))
    peak_x = g.axis_coords[i0] + frac * g.spacing
    centered = fractional_shift(f, [-peak_x])
    rolled = np.roll(centered.data[0, ::-1], 1)
    num = np.sqrt(np.sum(np.abs(centered.data[0] - rolled) ** 2))
    den = np.sqrt(np.sum(np.abs(centered.data[0]) ** 2))
    return float(num / den)


def symmetric_rearrangement_energy(f, kernel, p):
    """Energy of the symmetric-decreasing rearrangement of a one-component |f| (1D proxy).

    Sorting the moduli and laying them out alternately around the centre
    preserves the mass exactly; comparing energies measures how far the
    profile is from its own rearrangement.
    """
    g = f.grid
    if g.space_dim != 1:
        raise NotImplementedError("rearrangement proxy is implemented for 1D fields")
    n = g.points_per_dim
    values = np.sort(np.abs(f.data[0]))[::-1]
    out = np.zeros(n)
    center = n // 2
    out[center] = values[0]
    for rank in range(1, n):
        offset = (rank + 1) // 2
        idx = center - offset if rank % 2 else center + offset
        out[idx % n] = values[rank]
    return hf.total_energy(hf.MultiField(g, out[None]), kernel, p).total


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
        mf = hf.MultiField(grid, np.concatenate([gaussian_field(grid, 2.0, 1.0).data, gaussian_field(grid, 3.0, 2.0).data]))
        out = hf.project_masses(mf, [1.0, 2.0])
        assert np.abs(out.data - mf.data).max() <= 1e-12

    def test_scaling_by_two_restored(self, small_setup):
        _, grid, _ = small_setup
        mf = gaussian_field(grid, 2.0, 1.0)
        doubled = hf.MultiField(grid, 2.0 * mf.data)
        out = hf.project_masses(doubled, [1.0])
        assert np.abs(out.data - mf.data).max() <= 1e-12

    def test_random_fields_projected_exactly(self, small_setup):
        _, grid, _ = small_setup
        mf = trig_field(grid, seed=3, m=2)
        out = hf.project_masses(mf, [0.7, 1.3])
        assert hf.grid.norms_sq(grid, out.data) == pytest.approx([0.7, 1.3], rel=1e-12)

    def test_zero_mass_rejected(self, small_setup):
        _, grid, _ = small_setup
        mf = hf.MultiField(grid, np.zeros((1,) + grid.shape, dtype=complex))
        with pytest.raises(ZeroMassError):
            hf.project_masses(mf, [1.0])

    @pytest.mark.parametrize("masses", [[-1.0, 1.0], [0.0, 1.0], [np.inf, 1.0], [np.nan, 1.0]])
    def test_unusable_masses_rejected(self, small_setup, masses):
        _, grid, _ = small_setup
        with pytest.raises(ValueError, match="masses"):
            hf.project_masses(trig_field(grid, seed=3, m=2), masses)

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
        assert hf.grid.norms_sq(gs_m2.fields.grid, gs_m2.fields.data) == pytest.approx([1.0, 1.0], rel=1e-10)

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

    @pytest.mark.parametrize(
        "bad",
        [dict(tol=float("nan")), dict(tol=float("inf")), dict(tol=0.0), dict(max_iters=-1), dict(max_iters=2.5),
         dict(max_iters=True)],
        ids=["tol-nan", "tol-inf", "tol-zero", "max_iters-negative", "max_iters-float", "max_iters-bool"],
    )
    def test_unusable_tol_or_max_iters_rejected(self, small_setup, bad):
        params, _, kernel = small_setup
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            hf.ground_state(params, kernel, seed=0, **bad)

    def test_zero_max_iters_returns_the_projected_start(self, small_setup):
        params, grid, kernel = small_setup
        init = hf.gaussian_init(grid, params.masses, seed=0)
        gs = hf.ground_state(params, kernel, init=init, tol=1e-12, max_iters=0, center=False)
        assert (gs.iterations, gs.stop_reason) == (0, "max_iters")
        assert np.allclose(gs.fields.data, init.data, rtol=0, atol=1e-14)

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


def _transform_guard(monkeypatch, raise_in_loop=True):
    """Patch the grid transforms wherever the library looks them up.

    Inside the solver's loop, that is until it asks for the public energy of
    its result, the complex pair fftn_grid / ifftn_grid raise (raise_in_loop)
    or count into state["complex"], and every transform counts into
    state["field"] (a stack of m > 1 components) or state["density"] (one
    component: the total density and its potential).  Returns state, whose
    "in_loop" turns False after the loop.
    """
    state = {"in_loop": True, "complex": 0, "field": 0, "density": 0}
    for module in (hf.grid, hf.hartree):
        for name in ("fftn_grid", "ifftn_grid", "rfftn_grid", "irfftn_grid"):
            if not hasattr(module, name):
                continue
            original = getattr(module, name)

            def guarded(grid, arr, *args, _original=original, _complex=name in ("fftn_grid", "ifftn_grid"), **kwargs):
                if state["in_loop"]:
                    if _complex:
                        if raise_in_loop:
                            raise AssertionError("complex transform inside a real solve")
                        state["complex"] += 1
                    state["field" if arr.shape[-1 - grid.space_dim] > 1 else "density"] += 1
                return _original(grid, arr, *args, **kwargs)

            monkeypatch.setattr(module, name, guarded)
    public_energy = hf.minimize.total_energy

    def after_loop(*args, **kwargs):
        state["in_loop"] = False
        return public_energy(*args, **kwargs)

    monkeypatch.setattr(hf.minimize, "total_energy", after_loop)
    return state


@pytest.fixture()
def loop_states(monkeypatch):
    """Every _EnergyState the minimiser builds: the start and each trial."""
    states = []
    original = hf.minimize._EnergyState

    def spy(*args, **kwargs):
        states.append(original(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(hf.minimize, "_EnergyState", spy)
    return states


class TestCarriedSpectrum:
    """The loop carries the spectrum of its iterate: F(V x) and F^-1(d_hat) per iteration."""

    @pytest.mark.parametrize(
        "overrides", [{}, dict(space_dim=2, kernel_exponent=1.0, points_per_dim=16)], ids=["1d", "2d"]
    )
    @pytest.mark.parametrize("ramp", [0, 1], ids=["real", "complex"])
    def test_two_field_and_two_density_transforms_per_iteration(
        self, small_setup, overrides, ramp, loop_states, monkeypatch
    ):
        params = replace(small_setup[0], **overrides)
        grid = hf.grid_for(params)
        kernel = hf.build_kernel(grid, params.kernel_exponent)
        init = hf.gaussian_init(grid, params.masses, seed=3, complex_ramp_cycles=ramp)
        state = _transform_guard(monkeypatch, raise_in_loop=False)
        gs = hf.ground_state(params, kernel, init, tol=TOL)
        assert gs.converged and gs.iterations > 10
        # the start's spectrum, then F(V x) and F^-1(d_hat) per iteration
        assert state["field"] == 2 * gs.iterations + 2
        assert state["complex"] == (state["field"] if ramp else 0)
        # the density pair of the start and of every trial, accepted or not
        assert len(loop_states) >= gs.iterations + 1
        assert state["density"] == 2 * len(loop_states)

    def test_long_solve_keeps_spectrum_and_diagnostics(self, loop_states):
        # n=64 under-resolves this desk key: the solve crawls for thousands
        # of iterations before it converges
        params = hf.SystemParams(
            space_dim=1, component_count=2, power=2.0, kernel_exponent=0.5,
            masses=(0.5, 1.5), box_length=40.0, points_per_dim=64,
        )
        grid = hf.grid_for(params)
        kernel = hf.build_kernel(grid, params.kernel_exponent)
        seed = hf.analysis._stable_seed((0.5, 1.5), 5, 0)
        gs = hf.ground_state(params, kernel, tol=1e-5, seed=seed, center=False)
        assert gs.converged and gs.iterations >= 2000
        final = loop_states[-1]  # a solo solve builds its final state last
        assert np.array_equal(final.x[0], gs.fields.data.real)
        fresh = hf.grid.rfftn_grid(grid, final.x)
        assert np.abs(final.xhat - fresh).max() <= 1e-12 * np.abs(fresh).max()
        lambdas = hf.extract_multipliers(gs.fields, kernel, params.power)
        assert np.abs(gs.multipliers - lambdas).max() <= 1e-12 * np.abs(lambdas).max()
        # The residual is ~tol of the H^1 norm, so the spectrum's drift
        # (~1e-14 of it after thousands of steps) is measured against that norm.
        h1 = np.sqrt([hf.h1_norm_sq(c) for c in gs.fields.components])
        residuals = hf.el_residual(gs.fields, gs.multipliers, kernel, params.power)
        assert np.abs(gs.residuals - residuals).max() <= 1e-12 * h1.min()
        assert np.all(gs.residuals <= 1e-5 * h1 * (1 + 1e-9))


class TestRealArithmetic:
    """A real start is solved in float64 with real transforms; a complex one as before."""

    def test_real_start_keeps_float64_iterates(self, small_setup, monkeypatch):
        params, _, kernel = small_setup
        state = _transform_guard(monkeypatch)
        gs = hf.ground_state(params, kernel, tol=TOL, seed=3)
        assert not state["in_loop"]
        assert gs.converged
        assert gs.fields.data.dtype == np.complex128
        assert not np.any(gs.fields.data.imag)

    def test_complex_start_takes_complex_transforms(
        self, desk_params, desk_grid, desk_kernel, gs_m2_complex, monkeypatch
    ):
        init = hf.gaussian_init(desk_grid, desk_params.masses, seed=7, complex_ramp_cycles=1)
        state = _transform_guard(monkeypatch, raise_in_loop=False)
        gs = hf.ground_state(desk_params, desk_kernel, init, tol=TOL, seed=7)
        # the start's spectrum, then F(V x) and F^-1(d_hat) per iteration
        assert state["complex"] == 2 * gs.iterations + 2
        assert gs.iterations == gs_m2_complex.iterations
        assert np.array_equal(gs.fields.data, gs_m2_complex.fields.data)
        assert gs.energy == gs_m2_complex.energy

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(space_dim=2, kernel_exponent=1.0, points_per_dim=64)],
        ids=["desk", "lemmas-2d"],
    )
    def test_real_solve_matches_phase_turned_complex_solve(self, desk_params, overrides, monkeypatch):
        params = replace(desk_params, **overrides)
        grid = hf.grid_for(params)
        kernel = hf.build_kernel(grid, params.kernel_exponent)
        start = hf.gaussian_init(grid, params.masses, seed=5)
        _transform_guard(monkeypatch)
        real = hf.ground_state(params, kernel, init=start, tol=TOL)
        monkeypatch.undo()
        turned = hf.ground_state(params, kernel, init=hf.MultiField(grid, np.exp(0.3j) * start.data), tol=TOL)
        assert real.converged and turned.converged
        assert real.iterations == turned.iterations
        assert real.energy.total == pytest.approx(turned.energy.total, rel=1e-12, abs=0)
        assert real.multipliers == pytest.approx(turned.multipliers, rel=1e-12, abs=0)
        assert np.abs(np.abs(turned.fields.data) - np.abs(real.fields.data)).max() <= 1e-10


class TestExtractMultipliers:
    def test_zero_kernel_gives_negative_multiplier(self, small_setup):
        _, grid, _ = small_setup
        zero_kernel = hf.Kernel.zero(grid)
        mf = gaussian_field(grid, 2.0, 1.5)
        lam = hf.extract_multipliers(mf, zero_kernel, 2.0)
        expected = -hf.grad_norm_sq(mf) / hf.grid.norms_sq(grid, mf.data)[0]
        assert lam[0] == pytest.approx(expected, rel=1e-12)
        assert lam[0] < 0

    def test_plane_wave_eigenvalue(self, small_setup):
        _, grid, _ = small_setup
        k_wave = 2 * np.pi * 4 / grid.box_length
        f = hf.MultiField(grid, np.exp(1j * k_wave * grid.axis_coords)[None])
        lam = hf.extract_multipliers(f, hf.Kernel.zero(grid), 2.0)
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
        phases = np.array([np.pi / 3, -2.0])
        f = hf.MultiField(grid, np.exp(1j * phases)[:, None] * g.data)
        pf = hf.phase_factorize(f)
        assert pf.theta.shape == pf.deviation.shape == (2,)
        assert pf.theta == pytest.approx(phases, abs=1e-12)
        assert np.all(pf.deviation <= 1e-12)
        assert np.abs(pf.positive_part.data - g.data).max() <= 1e-12 * np.abs(g.data).max()

    def test_real_positive_theta_zero(self, small_setup):
        _, grid, _ = small_setup
        pf = hf.phase_factorize(gaussian_field(grid, 2.0))
        assert pf.theta == pytest.approx(0.0, abs=1e-12)

    def test_deviation_range(self, small_setup):
        _, grid, _ = small_setup
        pf = hf.phase_factorize(trig_field(grid, seed=11, m=3))
        assert np.all((0.0 <= pf.deviation) & (pf.deviation <= 2.0))

    def test_zero_field_rejected(self, small_setup):
        _, grid, _ = small_setup
        with pytest.raises(ZeroMassError):
            hf.phase_factorize(hf.MultiField(grid, np.zeros((1,) + grid.shape)))
        with pytest.raises(ZeroMassError):
            hf.phase_factorize(hf.MultiField(grid, np.concatenate([gaussian_field(grid, 2.0).data, np.zeros((1,) + grid.shape)])))

    def test_complex_seeded_minimiser(self, gs_m2_complex):
        pf = hf.phase_factorize(gs_m2_complex.fields)
        assert np.all(pf.deviation <= 1e-6)
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
        dev = evenness_deviation(gs_m1.fields.components[0])
        assert dev <= 1e-4

    def test_rearrangement_energy_close(self, desk_params, desk_kernel, gs_m1):
        # diagnostic: the symmetric-decreasing rearrangement cannot see a much
        # lower energy than the minimiser itself
        comp = gs_m1.fields.components[0]
        e_rearranged = symmetric_rearrangement_energy(comp, desk_kernel, desk_params.power)
        e_direct = hf.total_energy(comp, desk_kernel, desk_params.power).total
        assert abs(e_rearranged - e_direct) <= 1e-5 * abs(e_direct)


class TestPersistence:
    def test_save_round_trip(self, tmp_path, desk_params, gs_m2):
        # the CLI's minimize runner writes the snapshot and its JSON sidecar; gs_m2's solve, seed 1
        config = RunConfig(desk_params, SolverConfig(tol=TOL), experiment="minimize", output_dir=str(tmp_path), seed=1)
        assert cli.run(config) == 0
        back = hf.read_snapshot(tmp_path / "ground_state.chfld")
        assert np.array_equal(back.data, gs_m2.fields.data)
        with open(tmp_path / "ground_state.json") as fh:
            sidecar = json.load(fh)
        assert sidecar.keys() == {
            "masses", "lambda", "energy", "residuals", "iterations", "converged", "stop_reason", "seed", "params",
            "virial_residual",
        }
        assert sidecar["masses"] == pytest.approx([1.0, 1.0])
        assert sidecar["lambda"] == list(gs_m2.multipliers)
        assert sidecar["energy"] == asdict(gs_m2.energy)
        assert sidecar["residuals"] == list(gs_m2.residuals)
        assert (sidecar["iterations"], sidecar["seed"]) == (gs_m2.iterations, 1)
        assert sidecar["converged"] is True
        assert sidecar["stop_reason"] == "converged"
        assert sidecar["params"] == json.loads(json.dumps(asdict(desk_params)))
        assert sidecar["params"]["points_per_dim"] == 256
        assert sidecar["virial_residual"] == hf.virial_residual(gs_m2.energy, desk_params.dilation_exponent)


class TestVirialResidual:
    @pytest.mark.parametrize("n, expected", [(256, -5.2852e-3), (512, -3.8270e-3)])
    def test_desk_reads_the_kernel_error(self, desk_params, n, expected):
        # the sampled kernel's h^(1/2) error: r_v falls by ~2^(1/2) per doubling of n
        params = replace(desk_params, points_per_dim=n)
        kernel = hf.build_kernel(hf.grid_for(params), params.kernel_exponent)
        gs = hf.ground_state(params, kernel, tol=TOL, seed=0)
        assert gs.converged
        assert abs(hf.virial_residual(gs.energy, params.dilation_exponent) - expected) <= 1e-5


def _assert_same_solve(stacked, solo):
    """A stack member and its solo solve: the same bits in every result field."""
    assert np.array_equal(stacked.fields.data, solo.fields.data)
    assert stacked.energy == solo.energy
    assert np.array_equal(stacked.multipliers, solo.multipliers)
    assert np.array_equal(stacked.residuals, solo.residuals)
    assert stacked.iterations == solo.iterations
    assert stacked.stop_reason == solo.stop_reason
    assert stacked.seed == solo.seed


@pytest.fixture()
def stack_sizes(monkeypatch):
    """The member count of every stack the minimiser loop runs."""
    sizes = []
    loop = hf.minimize._minimize

    def spy(state, *args):
        sizes.append(len(state.x))
        return loop(state, *args)

    monkeypatch.setattr(hf.minimize, "_minimize", spy)
    return sizes


class TestStackedSolve:
    """ground_state on a list of problems: one loop, each member bit-equal to its solo solve."""

    @pytest.mark.parametrize(
        "overrides, masses",
        [
            (dict(component_count=1, masses=(1.0,)), [(0.5,), (1.0,), (1.5,), (2.0,)]),
            ({}, [(0.5, 0.5), (1.0, 1.0), (0.5, 1.0), (1.0, 1.5)]),
            (dict(space_dim=2, kernel_exponent=1.0, points_per_dim=16), [(0.5, 0.5), (1.0, 1.0), (0.5, 1.0)]),
            # 20 members on the reference grid (n=256), as many as a reference scan's m=2 runs at 2 seeds
            (dict(points_per_dim=256), [(a, b) for a in (0.5, 1.0, 1.5, 2.0) for b in (0.5, 1.0, 1.5, 2.0, 2.5)]),
        ],
        ids=["1d-m1", "1d-m2", "2d-m2", "1d-n256-m2-b20"],
    )
    def test_members_equal_solo_solves(self, small_setup, overrides, masses, stack_sizes):
        params = replace(small_setup[0], **overrides)
        kernel = hf.build_kernel(hf.grid_for(params), params.kernel_exponent)
        problems = [replace(params, masses=ms) for ms in masses]
        seeds = [4 + b for b in range(len(problems))]
        stack = hf.ground_state(problems, kernel, tol=TOL, seed=seeds)
        assert stack_sizes == [len(problems)]
        assert isinstance(stack, hf.GroundStateStack) and len(stack.members) == len(problems)
        for problem, seed, member in zip(problems, seeds, stack.members):
            _assert_same_solve(member, hf.ground_state(problem, kernel, tol=TOL, seed=seed))
        assert len({gs.iterations for gs in stack.members}) > 1  # members left the stack at different iterations

    def test_member_stopped_by_max_iters(self, small_setup):
        params, _, kernel = small_setup
        problems = [replace(params, masses=ms) for ms in [(0.3, 0.6), (1.0, 1.0), (1.5, 1.5)]]
        stack = hf.ground_state(problems, kernel, tol=TOL, max_iters=40, seed=[4, 4, 4])
        assert [gs.stop_reason for gs in stack.members] == ["converged", "converged", "max_iters"]
        assert stack.members[2].iterations == 40 > stack.members[1].iterations > stack.members[0].iterations
        assert not stack.converged
        for problem, member in zip(problems, stack.members):
            _assert_same_solve(member, hf.ground_state(problem, kernel, tol=TOL, max_iters=40, seed=4))

    def test_stalled_member_leaves_the_others_unchanged(self, small_setup):
        # tol below the floating-point floor: the converged start stalls at
        # once, the Gaussian starts run into the budget
        params, _, kernel = small_setup
        converged = hf.ground_state(params, kernel, tol=1e-10, seed=1)
        problems = [params, replace(params, masses=(0.5, 0.5)), params]
        inits = [converged.fields, None, None]
        seeds = [None, 4, 5]
        stack = hf.ground_state(problems, kernel, init=inits, tol=1e-14, max_iters=20, seed=seeds)
        assert [gs.stop_reason for gs in stack.members] == ["stalled", "max_iters", "max_iters"]
        assert stack.members[0].iterations < 20
        for problem, init, seed, member in zip(problems, inits, seeds, stack.members):
            _assert_same_solve(member, hf.ground_state(problem, kernel, init=init, tol=1e-14, max_iters=20, seed=seed))

    def test_members_backtracking_to_different_steps(self, small_setup):
        # near the floating-point floor members lower their energy at
        # different step lengths in one iteration, and the loop merges their
        # trial states into one stack (4 times in this solve)
        params, _, kernel = small_setup
        problems = [replace(params, masses=ms) for ms in [(0.5, 0.5), (1.0, 1.0), (0.5, 1.0), (1.0, 1.5)]]
        stack = hf.ground_state(problems, kernel, tol=1e-8, max_iters=200, seed=[1, 2, 3, 4])
        for problem, seed, member in zip(problems, [1, 2, 3, 4], stack.members):
            _assert_same_solve(member, hf.ground_state(problem, kernel, tol=1e-8, max_iters=200, seed=seed))

    def test_iterations_is_the_python_int_sum(self, small_setup):
        params, _, kernel = small_setup
        problems = [replace(params, masses=ms) for ms in [(0.5, 0.5), (1.0, 1.5)]]
        stack = hf.ground_state(problems, kernel, tol=TOL, seed=[1, 2])
        assert type(stack.iterations) is int
        assert stack.iterations == sum(gs.iterations for gs in stack.members) > 0
        assert all(type(gs.iterations) is int for gs in stack.members)
        assert stack.converged is True

    def test_stack_capacity_counts_field_points(self, small_setup):
        params = small_setup[0]
        cap = hf.minimize._STACK_POINTS
        assert hf.minimize.stack_capacity(params) == cap // (2 * 128)
        assert hf.minimize.stack_capacity(replace(params, component_count=1, masses=(1.0,))) == cap // 128
        # a member larger than the cap is a stack of its own
        assert hf.minimize.stack_capacity(replace(params, points_per_dim=2 * cap)) == 1
        # two 2D n=64, m=2 members (8,192 points each) share one call, a 2D n=128 one is alone
        two_d = replace(params, space_dim=2, kernel_exponent=1.0)
        assert hf.minimize.stack_capacity(replace(two_d, points_per_dim=64)) == 2
        assert hf.minimize.stack_capacity(replace(two_d, points_per_dim=128)) == 1
        # the 20 m=2 runs of the reference scan at 2 seeds (512 points each) share one call
        assert hf.minimize.stack_capacity(replace(params, points_per_dim=256)) >= 20

    def test_mixed_real_and_complex_starts(self, small_setup, stack_sizes):
        # a complex start does not turn the real members complex: one stack per dtype
        params, grid, kernel = small_setup
        real = hf.gaussian_init(grid, params.masses, seed=2)
        turned = hf.MultiField(grid, np.exp(0.3j) * real.data)
        inits = [real, turned, real]
        stack = hf.ground_state([params] * 3, kernel, init=inits, tol=TOL)
        assert stack_sizes == [2, 1]
        for init, member in zip(inits, stack.members):
            _assert_same_solve(member, hf.ground_state(params, kernel, init=init, tol=TOL))

    def test_problems_must_differ_only_in_masses(self, small_setup):
        params, _, kernel = small_setup
        with pytest.raises(ValueError, match="only in their masses"):
            hf.ground_state([params, replace(params, power=2.5)], kernel)
        with pytest.raises(ValueError, match="one seed per problem"):
            hf.ground_state([params, params], kernel, seed=[1])
        with pytest.raises(ValueError, match="at least one problem"):
            hf.ground_state([], kernel)
