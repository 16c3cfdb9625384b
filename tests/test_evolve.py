import csv
import importlib
from dataclasses import replace

import numpy as np
import pytest

import hartreeflow as hf
from hartreeflow import cli
from hartreeflow.cli import EvolutionConfig, RunConfig, SolverConfig
from hartreeflow.evolve import NanAbortError, Propagator
from hartreeflow.hartree import _convolve_array, abs_power, total_density
from conftest import gaussian_field, trig_field


@pytest.fixture()
def setup128():
    params = hf.SystemParams(
        space_dim=1, component_count=2, power=2.0, kernel_exponent=0.5,
        masses=(1.0, 1.0), box_length=40.0, points_per_dim=128,
    )
    grid = hf.grid_for(params)
    return params, grid, hf.build_kernel(grid, 0.5)


class TestStep:
    def test_zero_field(self, setup128):
        _, grid, kernel = setup128
        mf = hf.MultiField(grid, np.zeros((2,) + grid.shape, dtype=complex))
        out = hf.MultiField(grid, Propagator(grid, kernel, 2.0, 1e-2).step_array(mf.data))
        assert np.abs(out.data).max() == 0.0

    def test_free_plane_wave_exact(self, setup128):
        # with the convention that makes exp(-i lambda t) phi an exact standing
        # wave, a free plane wave exp(ikx) evolves to exp(i(kx + k^2 t))
        _, grid, _ = setup128
        zero_kernel = hf.Kernel.zero(grid)
        k_wave = 2 * np.pi * 3 / grid.box_length
        pw = np.exp(1j * k_wave * grid.axis_coords)
        dt = 1e-3
        out = hf.MultiField(grid, Propagator(grid, zero_kernel, 2.0, dt).step_array(pw[None]))
        expected = pw * np.exp(1j * k_wave**2 * dt)
        assert np.abs(out.data[0] - expected).max() <= 1e-13

    def test_mass_conserved_per_step(self, setup128):
        _, grid, kernel = setup128
        mf = hf.project_masses(trig_field(grid, seed=2, m=2), [1.0, 1.0])
        out = hf.MultiField(grid, Propagator(grid, kernel, 2.0, 1e-2).step_array(mf.data))
        masses = hf.grid.norms_sq(grid, out.data)
        assert np.abs(masses - 1.0).max() <= 1e-12

    def test_nan_input_aborts(self, setup128):
        _, grid, kernel = setup128
        data = np.ones((2,) + grid.shape, dtype=complex)
        data[0, 0] = np.nan
        with pytest.raises(NanAbortError):
            Propagator(grid, kernel, 2.0, 1e-2).step_array(data)

    def test_rejects_nonpositive_dt(self, setup128):
        _, grid, kernel = setup128
        mf = trig_field(grid, seed=3, m=2)
        with pytest.raises(ValueError):
            Propagator(grid, kernel, 2.0, 0.0).step_array(mf.data)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_dt(self, setup128, dt):
        _, grid, kernel = setup128
        with pytest.raises(ValueError, match="dt"):
            Propagator(grid, kernel, 2.0, dt)

    def test_noninteger_power_step_isometry(self, setup128):
        _, grid, kernel = setup128
        mf = hf.project_masses(trig_field(grid, seed=4, m=1), [1.0])
        out = hf.MultiField(grid, Propagator(grid, kernel, 2.5, 1e-2).step_array(mf.data))
        assert hf.grid.norms_sq(grid, out.data)[0] == pytest.approx(1.0, rel=1e-12)


def reference_strang_step(x, dt, kernel, p):
    """Textbook Strang step: two independent half-kicks around a kinetic step."""

    def half_kick(y):
        potential = np.fft.ifftn(kernel.multiplier * np.fft.fftn(abs_power(y, p).sum(axis=0))).real
        return y * np.exp(-0.5j * dt * potential * np.abs(y) ** (p - 2))

    kinetic = np.exp(1j * kernel.grid.k_squared * dt)
    return half_kick(np.fft.ifft(kinetic * np.fft.fft(half_kick(x), axis=-1), axis=-1))


@pytest.fixture()
def perturbed_m2(gs_m2):
    grid = gs_m2.fields.grid
    pert = hf.analysis.random_h1_perturbation(grid, 2, 11)
    return hf.project_masses(hf.MultiField(grid, gs_m2.fields.data + 1e-2 * pert.data), [1.0, 1.0])


class TestFusedStep:
    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_matches_textbook_strang(self, desk_kernel, perturbed_m2, p):
        dt = 1e-3
        prop = Propagator(perturbed_m2.grid, desk_kernel, p, dt)
        fused = ref = perturbed_m2.data
        for _ in range(1000):
            fused = prop.step_array(fused)
            ref = reference_strang_step(ref, dt, desk_kernel, p)
        assert np.linalg.norm(fused - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_cold_copy_matches_warm_step(self, desk_kernel, perturbed_m2):
        prop = Propagator(perturbed_m2.grid, desk_kernel, 2.0, 1e-3)
        out = prop.step_array(perturbed_m2.data)
        warm = prop.step_array(out)
        cold = prop.step_array(out.copy())
        assert np.linalg.norm(cold - warm) <= 1e-14 * np.linalg.norm(warm)

    def test_outputs_are_read_only(self, desk_kernel, perturbed_m2):
        prop = Propagator(perturbed_m2.grid, desk_kernel, 2.0, 1e-3)
        out = prop.step_array(perturbed_m2.data)
        with pytest.raises(ValueError):
            out[0, 0] = 0.0
        assert perturbed_m2.data.flags.writeable

    @staticmethod
    def count_transforms(monkeypatch) -> list:
        """Names of the numpy.fft entry points called from now on, in call order."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        return calls

    def test_transform_count_per_step(self, monkeypatch, desk_kernel, perturbed_m2):
        # a 1D grid calls numpy's 1D entry points, complex and real alike; the
        # benchmark's evolve.fft_per_step counts only fftn and ifftn
        calls = self.count_transforms(monkeypatch)
        prop = Propagator(perturbed_m2.grid, desk_kernel, 2.0, 1e-3)
        out = prop.step_array(perturbed_m2.data)
        assert sorted(calls) == ["fft", "ifft", "irfft", "irfft", "rfft", "rfft"]
        prop.step_array(out)
        assert len(calls) == 10
        assert sorted(calls[6:]) == ["fft", "ifft", "irfft", "rfft"]
        stack = prop.step_array(np.stack([out, perturbed_m2.data, out]))
        assert len(calls) == 16
        prop.step_array(stack)
        assert len(calls) == 20
        assert sorted(calls[16:]) == ["fft", "ifft", "irfft", "rfft"]

    def test_transform_count_per_step_2d(self, monkeypatch):
        grid = hf.Grid(space_dim=2, points_per_dim=16, box_length=12.0)
        kernel = hf.build_kernel(grid, 1.0)
        x = hf.project_masses(trig_field(grid, seed=6, m=2), [1.0, 1.0]).data
        calls = self.count_transforms(monkeypatch)
        prop = Propagator(grid, kernel, 2.0, 1e-3)
        out = prop.step_array(x)
        assert sorted(calls) == ["fftn", "ifftn", "irfftn", "irfftn", "rfftn", "rfftn"]
        prop.step_array(out)
        assert sorted(calls[6:]) == ["fftn", "ifftn", "irfftn", "rfftn"]

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_half_kick_phase_is_the_complex_exp(self, desk_kernel, perturbed_m2, p):
        # the former formula; cos/sin of the real angle and the complex exp
        # may round differently in the last bits on another libm or CPU
        dt, x = 1e-3, np.stack([perturbed_m2.data] * 2)
        u = _convolve_array(desk_kernel, total_density(desk_kernel.grid, x, p))
        expected = np.exp(-0.5j * dt * u * np.abs(x) ** (p - 2))
        phase = Propagator(perturbed_m2.grid, desk_kernel, p, dt)._half_kick_phase(x)
        assert phase.dtype == expected.dtype
        # for p = 2 the phase has one component row, shared by every component
        phase = np.broadcast_to(phase, expected.shape)
        np.testing.assert_array_max_ulp(phase.real, expected.real, maxulp=2)
        np.testing.assert_array_max_ulp(phase.imag, expected.imag, maxulp=2)

    def test_zero_angle_phase_keeps_the_sign_of_zero(self, setup128):
        _, grid, _ = setup128
        x = trig_field(grid, seed=5, m=2).data
        phase = Propagator(grid, hf.Kernel.zero(grid), 2.0, 1e-3)._half_kick_phase(x)
        expected = np.exp(-0.5j * 1e-3 * np.zeros(phase.shape))
        assert phase.tobytes() == expected.tobytes()

    def test_input_never_written(self, desk_kernel, perturbed_m2):
        prop = Propagator(perturbed_m2.grid, desk_kernel, 2.0, 1e-3)
        a = perturbed_m2.data.copy()
        before = a.tobytes()
        out = prop.step_array(a)
        assert a.tobytes() == before and a.flags.writeable
        warm = out.tobytes()
        prop.step_array(out)
        assert out.tobytes() == warm

    def test_earlier_outputs_unchanged_by_later_steps(self, desk_kernel, perturbed_m2):
        prop = Propagator(perturbed_m2.grid, desk_kernel, 2.0, 1e-3)
        outs = [prop.step_array(perturbed_m2.data)]
        saved = [outs[0].tobytes()]
        for _ in range(3):
            outs.append(prop.step_array(outs[-1]))
            saved.append(outs[-1].tobytes())
        assert [o.tobytes() for o in outs] == saved
        assert not any(o.flags.writeable for o in outs)
        assert len({id(o) for o in outs}) == len(outs)

    def test_inf_in_one_member_aborts(self, desk_kernel, perturbed_m2):
        stack = np.stack([perturbed_m2.data] * 3)
        stack[1, 0, 5] = np.inf
        with pytest.raises(NanAbortError):
            Propagator(perturbed_m2.grid, desk_kernel, 2.0, 1e-3).step_array(stack)

    def test_nan_in_one_member_aborts(self, desk_kernel, perturbed_m2):
        stack = np.stack([perturbed_m2.data] * 3)
        stack[1, 0, 5] = np.nan
        with pytest.raises(NanAbortError):
            Propagator(perturbed_m2.grid, desk_kernel, 2.0, 1e-3).step_array(stack)


class TestEvolve:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(record_every=0),
            dict(record_every=-2),
            dict(record_every=2.0),
            dict(dt=0.0),
            dict(dt=float("nan")),
            dict(dt=-1e-3),
            dict(T=float("inf")),
            dict(T=0.0),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_invalid_inputs_rejected(self, setup128, kwargs):
        _, grid, kernel = setup128
        mf = hf.project_masses(trig_field(grid, seed=9, m=2), [1.0, 1.0])
        args = dict(T=5e-3, dt=1e-3) | kwargs
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            hf.evolve(mf, kernel=kernel, p=2.0, **args)

    def test_short_free_run_sample_count_and_mass(self, setup128):
        _, grid, _ = setup128
        mf = hf.project_masses(trig_field(grid, seed=5, m=2), [1.0, 1.0])
        dt = 1e-3
        trace = hf.evolve(mf, 10 * dt, dt, hf.Kernel.zero(grid), 2.0)
        # one sample per step plus the initial time
        assert len(trace.times) == 11
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(10 * dt)
        assert np.all(np.diff(trace.times) > 0)
        assert trace.mass_drift <= 1e-12

    def test_preallocated_samples_follow_the_record_rule(self, setup128):
        # steps 0, 4, 8 and the last step 10 are recorded, with the values
        # of a run that records every step
        _, grid, kernel = setup128
        mf = hf.project_masses(trig_field(grid, seed=10, m=2), [1.0, 1.0])
        every = hf.evolve(mf, 10e-3, 1e-3, kernel, 2.0)
        sparse = hf.evolve(mf, 10e-3, 1e-3, kernel, 2.0, record_every=4)
        rows = [0, 4, 8, 10]
        assert np.array_equal(sparse.times, every.times[rows])
        assert np.array_equal(sparse.masses, every.masses[rows])
        assert np.array_equal(sparse.energy, every.energy[rows])
        assert np.all(np.isnan(sparse.orbit_distance)) and sparse.orbit_distance.shape == (4,)

    def test_mass_drift_of_a_zero_mass_component_is_absolute(self):
        params = hf.SystemParams(
            space_dim=1, component_count=2, power=2.0, kernel_exponent=0.5,
            masses=(1.0, 1.0), box_length=40.0, points_per_dim=64,
        )
        grid = hf.grid_for(params)
        first = hf.project_masses(trig_field(grid, seed=4), [1.0]).data
        mf = hf.MultiField(grid, np.concatenate([first, np.zeros_like(first)]))
        trace = hf.evolve(mf, 0.01, 1e-3, hf.build_kernel(grid, 0.5), 2.0)
        assert np.all(trace.masses[:, 1] == 0.0)
        m0 = trace.masses[:, 0]
        assert trace.mass_drift == np.max(np.abs(m0 - m0[0]) / m0[0])
        # the drift of a component whose initial mass is zero is absolute
        masses = trace.masses.copy()
        masses[1:, 1] = 2e-9
        assert replace(trace, masses=masses).mass_drift == 2e-9

    def test_mass_drift_of_positive_masses_keeps_its_relative_value(self, setup128):
        _, grid, kernel = setup128
        starts = [hf.project_masses(trig_field(grid, seed=s, m=2), [1.0, 0.5]) for s in (5, 6)]
        trace = hf.evolve(starts, 5e-3, 1e-3, kernel, 2.0)
        for t in (trace, trace.member(0), trace.member(1)):
            ref = t.masses[0]
            assert t.mass_drift == float(np.max(np.abs(t.masses - ref) / ref))

    def test_energy_drift_second_order(self, desk_params, desk_kernel, gs_m2):
        grid = gs_m2.fields.grid
        pert = hf.analysis.random_h1_perturbation(grid, 2, 42)
        start = hf.project_masses(
            hf.MultiField(grid, gs_m2.fields.data + 0.05 * pert.data), [1.0, 1.0]
        )
        drifts = []
        for dt in (2e-3, 1e-3):
            tr = hf.evolve(start, 0.5, dt, desk_kernel, desk_params.power, record_every=50)
            drifts.append(tr.energy_drift)
        order = np.log2(drifts[0] / drifts[1])
        assert 1.8 <= order <= 2.2

    def test_instability_flagged_not_raised(self, desk_params, desk_kernel, gs_m2):
        grid = gs_m2.fields.grid
        pert = hf.analysis.random_h1_perturbation(grid, 2, 3)
        start = hf.project_masses(
            hf.MultiField(grid, gs_m2.fields.data + 0.3 * pert.data), [1.0, 1.0]
        )
        tr = hf.evolve(start, 10.0, 0.5, desk_kernel, desk_params.power, record_every=1)
        assert tr.flags.get("unstable") is True

    def test_trace_csv_round_trip(self, tmp_path, setup128):
        # the CLI's evolve runner writes trace.csv: a header, then one row per recorded sample
        params, _, kernel = setup128
        config = RunConfig(
            params, SolverConfig(tol=1e-4), EvolutionConfig(T=5e-3, dt=1e-3),
            experiment="evolve", output_dir=str(tmp_path), seed=7,
        )
        assert cli.run(config) == 0
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "mass_1", "mass_2", "energy", "orbit_distance"]
        gs = cli._solve_reference(config, kernel)
        trace = hf.evolve(gs.fields, 5e-3, 1e-3, kernel, 2.0, ground_state=gs)
        assert len(rows) == 1 + len(trace.times) == 7
        for row, t, mass, e, d in zip(rows[1:], trace.times, trace.masses, trace.energy, trace.orbit_distance):
            assert [float(v) for v in row] == [t, *mass, e, d]
        assert float(rows[1][1]) == pytest.approx(1.0, rel=1e-12)


def small_ground_state(space_dim, m, n, p):
    params = hf.SystemParams(
        space_dim=space_dim, component_count=m, power=p, kernel_exponent=0.5,
        masses=(1.0,) * m, box_length=20.0, points_per_dim=n,
    )
    kernel = hf.build_kernel(hf.grid_for(params), 0.5)
    gs = hf.ground_state(params, kernel, tol=1e-6, seed=1)
    assert gs.converged
    return gs, kernel


def perturbed_starts(gs, eps_list, masses):
    grid = gs.fields.grid
    return [
        hf.project_masses(
            hf.MultiField(grid, gs.fields.data + eps * hf.analysis.random_h1_perturbation(grid, gs.fields.m, i).data),
            masses,
        )
        for i, eps in enumerate(eps_list)
    ]


def assert_members_match_single_runs(trace, starts, *args, **kwargs):
    for b, start in enumerate(starts):
        member, alone = trace.member(b), hf.evolve(start, *args, **kwargs)
        for name in ("times", "masses", "energy", "orbit_distance"):
            assert np.array_equal(getattr(member, name), getattr(alone, name)), name
        assert member.flags == alone.flags
        assert member.T == alone.T


class TestStackedEvolve:
    @pytest.mark.parametrize(
        "space_dim,m,n,p",
        [(1, 2, 64, 2.0), (1, 2, 64, 2.5), (1, 3, 64, 2.0), (2, 2, 32, 2.0)],
        ids=["N1-m2-p2", "N1-m2-p2.5", "N1-m3", "N2-m2"],
    )
    def test_members_bit_equal_to_single_runs(self, space_dim, m, n, p):
        gs, kernel = small_ground_state(space_dim, m, n, p)
        starts = perturbed_starts(gs, [0.0, 1e-3, 1e-2], [1.0] * m)
        args = (0.1, 1e-2, kernel, p)
        kwargs = dict(ground_state=gs, record_every=3)
        trace = hf.evolve(starts, *args, **kwargs)
        assert trace.masses.shape == (5, 3, m)
        assert trace.energy.shape == trace.orbit_distance.shape == (5, 3)
        assert_members_match_single_runs(trace, starts, *args, **kwargs)

    def test_flags_are_per_member(self, desk_params, desk_kernel, gs_m2):
        # five times the mass makes the step far too coarse for the second start only
        starts = [gs_m2.fields, hf.project_masses(gs_m2.fields, [5.0, 5.0])]
        args = (10.0, 0.1, desk_kernel, desk_params.power)
        kwargs = dict(ground_state=gs_m2, record_every=1)
        trace = hf.evolve(starts, *args, **kwargs)
        assert trace.member(0).flags == {}
        assert trace.member(1).flags == {"unstable": True}
        assert trace.flags == {"unstable": True}
        assert_members_match_single_runs(trace, starts, *args, **kwargs)

    def test_drifts_are_the_largest_over_members(self, setup128):
        _, grid, kernel = setup128
        starts = [hf.project_masses(trig_field(grid, seed=s, m=2), [1.0, 1.0]) for s in (5, 6)]
        trace = hf.evolve(starts, 5e-3, 1e-3, kernel, 2.0)
        members = [trace.member(b) for b in range(2)]
        assert trace.energy_drift == max(t.energy_drift for t in members)
        assert trace.mass_drift == max(t.mass_drift for t in members)

    def test_mismatched_or_empty_starts_rejected(self, setup128):
        _, grid, kernel = setup128
        mf = trig_field(grid, seed=1, m=2)
        other_box = hf.Grid(1, grid.points_per_dim, 2 * grid.box_length)
        for starts in ([], [mf, trig_field(other_box, seed=1, m=2)], [mf, trig_field(grid, seed=1, m=3)]):
            with pytest.raises(ValueError):
                hf.evolve(starts, 5e-3, 1e-3, kernel, 2.0)

    def test_ground_state_on_another_grid_rejected(self):
        # same n and m, another box: the orbit distance of a raw stack checks
        # only the shape, so the grids must be compared up front
        small = hf.SystemParams(1, 1, 2.0, 0.5, (1.0,), 20.0, 64)
        gs = hf.ground_state(small, hf.build_kernel(hf.grid_for(small), 0.5), tol=1e-6)
        grid = hf.Grid(1, 64, 40.0)
        start = hf.project_masses(trig_field(grid, seed=4), [1.0])
        with pytest.raises(ValueError, match="grid"):
            hf.evolve(start, 5e-3, 1e-3, hf.build_kernel(grid, 0.5), 2.0, ground_state=gs)

    def test_overflowing_step_count_rejected(self, setup128):
        _, grid, kernel = setup128
        mf = trig_field(grid, seed=1, m=2)
        with pytest.raises(ValueError, match="T/dt"):
            hf.evolve(mf, 1e300, 1e-10, kernel, 2.0)


class TestStackedQuantities:
    @pytest.mark.parametrize(
        "space_dim,m,n,p",
        [(1, 1, 64, 2.0), (1, 2, 64, 2.0), (1, 2, 64, 2.5), (1, 3, 64, 2.0), (2, 2, 32, 2.0)],
        ids=["N1-m1", "N1-m2-p2", "N1-m2-p2.5", "N1-m3", "N2-m2"],
    )
    def test_stack_equals_members(self, space_dim, m, n, p):
        gs, kernel = small_ground_state(space_dim, m, n, p)
        starts = perturbed_starts(gs, [0.0, 1e-3, 1e-2, 5e-2], [1.0] * m)
        stack = np.stack([s.data for s in starts])
        energy = hf.total_energy(stack, kernel, p)
        distance = hf.orbit_distance(stack, gs)
        masses = hf.grid.norms_sq(gs.fields.grid, stack)
        assert energy.total.shape == distance.shape == (4,)
        for b, start in enumerate(starts):
            alone = hf.total_energy(start, kernel, p)
            assert (energy.kinetic[b], energy.interaction[b], energy.total[b]) == (
                alone.kinetic, alone.interaction, alone.total
            )
            assert distance[b] == hf.orbit_distance(start, gs)
            assert np.array_equal(masses[b], hf.grid.norms_sq(start.grid, start.data))
        # any number of leading axes
        square = stack.reshape((2, 2) + stack.shape[1:])
        assert np.array_equal(hf.total_energy(square, kernel, p).total, energy.total.reshape(2, 2))
        assert np.array_equal(hf.orbit_distance(square, gs), distance.reshape(2, 2))

    def test_unstacked_results_are_python_floats(self, gs_m2, desk_kernel):
        energy = hf.total_energy(gs_m2.fields, desk_kernel, 2.0)
        assert all(type(v) is float for v in (energy.kinetic, energy.interaction, energy.total))
        assert type(hf.orbit_distance(gs_m2.fields, gs_m2)) is float
        assert hf.total_energy(gs_m2.fields.data, desk_kernel, 2.0) == energy

    def test_trailing_shape_checked_against_grid(self, gs_m2, desk_kernel):
        n = gs_m2.fields.grid.points_per_dim
        for bad in (np.zeros((3, 2, n // 2), complex), np.zeros((n,), complex)):
            with pytest.raises(hf.SizeMismatchError):
                hf.total_energy(bad, desk_kernel, 2.0)
            with pytest.raises(hf.SizeMismatchError):
                hf.orbit_distance(bad, gs_m2)
        with pytest.raises(hf.SizeMismatchError):
            hf.orbit_distance(np.zeros((3, 3, n), complex), gs_m2)

    def test_recording_makes_one_call_per_sample(self, monkeypatch, desk_kernel, gs_m2):
        evolve_module = importlib.import_module("hartreeflow.evolve")
        calls = {"total_energy": 0, "orbit_distance": 0}
        for name in calls:
            original = getattr(evolve_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(evolve_module, name, counted)
        starts = perturbed_starts(gs_m2, [0.0, 1e-3, 1e-2], [1.0, 1.0])
        trace = hf.evolve(starts, 0.1, 1e-2, desk_kernel, 2.0, ground_state=gs_m2, record_every=2)
        assert len(trace.times) == 6
        assert calls == {"total_energy": 6, "orbit_distance": 6}


class TestOrbitDistance:
    def test_zero_on_the_minimiser(self, gs_m2):
        assert hf.orbit_distance(gs_m2.fields, gs_m2) <= 1e-10

    def test_gauge_invariance(self, gs_m2):
        grid = gs_m2.fields.grid
        shifted = np.roll(gs_m2.fields.data, 17, axis=1)
        phases = np.exp(1j * np.array([0.7, -1.3])).reshape(-1, 1)
        mf = hf.MultiField(grid, phases * shifted)
        assert hf.orbit_distance(mf, gs_m2) <= 1e-8

    def test_small_perturbation_bound(self, gs_m2):
        # distance is at most the H^1 size of the added perturbation (x2 slack)
        grid = gs_m2.fields.grid
        eps = 1e-3
        pert = hf.analysis.random_h1_perturbation(grid, 2, 8)
        mf = hf.MultiField(grid, gs_m2.fields.data + eps * pert.data)
        dist = hf.orbit_distance(mf, gs_m2)
        assert 0.0 <= dist <= 2 * eps

    def test_cached_minimiser_spectrum(self, monkeypatch, gs_m2):
        # the minimiser's density spectrum is taken once per GroundState
        gs = replace(gs_m2)
        grid = gs.fields.grid
        pert = hf.analysis.random_h1_perturbation(grid, 2, 12)
        stack = np.stack([gs.fields.data, gs.fields.data + 1e-3 * pert.data])
        calls = TestFusedStep.count_transforms(monkeypatch)
        first = hf.orbit_distance(stack, gs)
        assert len(calls) == 4
        second = hf.orbit_distance(stack, gs)
        assert len(calls) == 7
        assert np.array_equal(second, first)
        assert np.array_equal(hf.orbit_distance(stack, replace(gs_m2)), first)
        assert not gs.correlation_spectrum.flags.writeable

    def test_grid_mismatch_rejected(self, gs_m2):
        other = hf.Grid(1, 64, 40.0)
        mf = hf.MultiField(other, np.ones((2,) + other.shape, dtype=complex))
        with pytest.raises(ValueError):
            hf.orbit_distance(mf, gs_m2)


class TestStandingWave:
    def test_modulus_invariance_short(self, desk_params, desk_kernel, gs_m2):
        # 1000 steps; the full T = 5 check lives in the acceptance suite
        phi = gs_m2.fields
        moduli = np.abs(phi.data)
        cell = phi.grid.cell_volume
        x = phi.data.copy()
        prop = Propagator(phi.grid, desk_kernel, desk_params.power, 1e-3)
        worst = 0.0
        for _ in range(1000):
            x = prop.step_array(x)
            diff = np.abs(x) - moduli
            err = np.sqrt(cell * np.max(np.sum(diff**2, axis=1)))
            worst = max(worst, float(err))
        assert worst <= 1e-4

    def test_phase_rotation_rate_matches_multipliers(self, standing_trace, gs_m2):
        # the overlap <phi_j, psi_j(t)> rotates at rate -lambda_j
        mask = standing_trace.times <= 1.0
        for j in range(2):
            phase = np.unwrap(np.angle(standing_trace.overlaps[mask, j]))
            rate = np.polyfit(standing_trace.times[mask], phase, 1)[0]
            lam = gs_m2.multipliers[j]
            assert abs(rate + lam) <= 1e-2 * lam
