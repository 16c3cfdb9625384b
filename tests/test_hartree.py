import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hartreeflow as hf
from hartreeflow.evolve import Propagator
from hartreeflow.grid import convolve_real
from hartreeflow.hartree import SingularKernelError, _EnergyState
from conftest import rescaled_gaussian, trig_field


def periodic_kernel_lookup(kernel):
    """Independent kernel evaluation W_per(d) by folding the displacement and
    reading the coordinate-ordered samples."""
    g = kernel.grid

    def w(disp):
        idx = []
        for d in np.atleast_1d(disp):
            d = (d + g.box_length / 2) % g.box_length - g.box_length / 2
            idx.append(int(round((d + g.box_length / 2) / g.spacing)) % g.points_per_dim)
        return kernel.real_samples[tuple(idx)]

    return w


def direct_convolution(kernel, rho):
    """O(n^2) quadrature of int W(x - y) rho(y) dy."""
    g = kernel.grid
    w = periodic_kernel_lookup(kernel)
    coords = np.stack([c.ravel() for c in g.coordinate_arrays], axis=1)
    flat = rho.ravel()
    out = np.empty(flat.shape)
    for i, xi in enumerate(coords):
        out[i] = sum(w(xi - yj) * flat[j] for j, yj in enumerate(coords))
    return out.reshape(g.shape) * g.cell_volume


def direct_pair_interaction(q, f, g_field, kernel, p):
    rho_f = np.sum(np.abs(f.data) ** p, axis=0)
    rho_g = np.sum(np.abs(g_field.data) ** p, axis=0)
    conv = direct_convolution(kernel, rho_g)
    return float(kernel.grid.cell_volume * np.sum(rho_f * conv) / q)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return hf.MultiField(grid, (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))[None])


class TestBuildKernel:
    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_unusable_exponent(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            hf.build_kernel(hf.Grid(space_dim=1, points_per_dim=64, box_length=20.0), alpha)

    def test_sample_at_one_spacing_3d(self):
        g = hf.Grid(space_dim=3, points_per_dim=8, box_length=8.0)
        k = hf.build_kernel(g, 1.0)
        mid = g.points_per_dim // 2
        assert k.real_samples[mid + 1, mid, mid] == pytest.approx(1.0 / g.spacing)

    def test_even_under_reflection(self):
        g = hf.Grid(space_dim=2, points_per_dim=16, box_length=10.0)
        k = hf.build_kernel(g, 0.75)
        s = k.real_samples
        for ax in range(2):
            assert np.allclose(s, np.roll(np.flip(s, axis=ax), 1, axis=ax), atol=0)

    def test_symbol_real_and_positive_on_reference_grid(self):
        g = hf.Grid(space_dim=1, points_per_dim=64, box_length=20.0)
        samples = hf.build_kernel(g, 0.5).real_samples
        raw = g.cell_volume * np.fft.fft(np.fft.ifftshift(samples))
        assert np.abs(raw.imag).max() <= 1e-10 * np.abs(raw.real).max()
        # positivity of the symbol on this grid is recorded, not assumed
        assert raw.real.min() > 0

    def test_corner_truncation_2d(self):
        g = hf.Grid(space_dim=2, points_per_dim=16, box_length=10.0)
        k = hf.build_kernel(g, 0.75)
        corner = k.real_samples[0, 0]  # periodic distance L/sqrt(2) > L/2
        assert corner == 0.0

    def test_origin_cell_average_1d(self):
        g = hf.Grid(space_dim=1, points_per_dim=64, box_length=20.0)
        k = hf.build_kernel(g, 0.5)
        expected = (g.spacing / 2) ** (-0.5) / 0.5  # exact cell average of |x|^-1/2
        assert k.real_samples[g.points_per_dim // 2] == pytest.approx(expected, rel=1e-13)

    def test_origin_cell_average_2d_consistent(self):
        # independent re-computation of the unit-square average of |u|^(-alpha)
        # with a finer midpoint refinement and the same self-similar centre cell
        alpha = 0.75

        def unit_average(K):
            centers = (np.arange(K) + 0.5) / K - 0.5
            xx, yy = np.meshgrid(centers, centers, indexing="ij")
            rad = np.sqrt(xx**2 + yy**2)
            mid = (K - 1) // 2
            with np.errstate(divide="ignore"):
                vals = rad**-alpha
            vals[mid, mid] = 0.0
            return vals.sum() / K**2 / (1.0 - K ** (alpha - 2))

        g = hf.Grid(space_dim=2, points_per_dim=16, box_length=10.0)
        k = hf.build_kernel(g, alpha)
        origin = k.real_samples[8, 8]
        oracle = g.spacing ** (-alpha) * unit_average(513)
        assert origin == pytest.approx(oracle, rel=1e-3)

    def test_singular_exponent_rejected(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        with pytest.raises(SingularKernelError):
            hf.build_kernel(g, 1.0)

    def test_from_samples_rejects_negative_and_uneven(self):
        g = hf.Grid(space_dim=1, points_per_dim=16, box_length=8.0)
        with pytest.raises(ValueError):
            hf.Kernel.from_samples(g, -np.ones(g.shape))
        uneven = np.zeros(g.shape)
        uneven[3] = 1.0
        with pytest.raises(ValueError):
            hf.Kernel.from_samples(g, uneven)


class TestConvolution:
    def test_zero_density(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        out = hf.convolve_density(k, hf.MultiField(g, np.zeros((1,) + g.shape)))
        assert np.abs(out.data).max() == 0.0

    def test_delta_recovers_kernel(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        w = periodic_kernel_lookup(k)
        j0 = 11
        rho = np.zeros(g.shape)
        rho[j0] = 1.0 / g.cell_volume
        out = hf.convolve_density(k, hf.MultiField(g, rho[None])).data[0].real
        expected = np.array([w(g.axis_coords[i] - g.axis_coords[j0]) for i in range(32)])
        assert np.abs(out - expected).max() <= 1e-10 * expected.max()

    def test_direct_sum_oracle_1d(self):
        g = hf.Grid(space_dim=1, points_per_dim=16, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        rho = np.random.default_rng(0).random((2,) + g.shape)
        spectral = hf.convolve_density(k, hf.MultiField(g, rho)).data.real
        for j in range(2):
            direct = direct_convolution(k, rho[j])
            assert np.abs(spectral[j] - direct).max() <= 1e-10 * np.abs(direct).max()

    def test_direct_sum_oracle_2d(self):
        g = hf.Grid(space_dim=2, points_per_dim=12, box_length=8.0)
        k = hf.build_kernel(g, 0.75)
        rho = np.random.default_rng(1).random(g.shape)
        spectral = hf.convolve_density(k, hf.MultiField(g, rho[None])).data[0].real
        direct = direct_convolution(k, rho)
        assert np.abs(spectral - direct).max() <= 1e-10 * np.abs(direct).max()

    @pytest.mark.parametrize("space_dim,n,alpha", [(1, 64, 0.5), (2, 16, 1.0), (3, 8, 1.5)])
    @pytest.mark.parametrize("zero", [False, True], ids=["shipped", "zero"])
    def test_real_transforms_match_complex_oracle(self, space_dim, n, alpha, zero):
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        k = hf.Kernel.zero(g) if zero else hf.build_kernel(g, alpha)
        rho = np.random.default_rng(space_dim).random((3, 2) + g.shape)
        axes = g.spatial_axes
        oracle = np.fft.ifftn(k.multiplier * np.fft.fftn(rho, axes=axes), axes=axes).real
        out = convolve_real(g, rho, k.half_multiplier)
        assert out.shape == rho.shape
        assert np.abs(out - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("space_dim,n,alpha", [(1, 64, 0.5), (2, 16, 1.0), (3, 8, 1.5)])
    def test_half_symbol_is_slice_of_full(self, space_dim, n, alpha):
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        for k in (hf.build_kernel(g, alpha), hf.Kernel.zero(g)):
            half = k.half_multiplier
            assert half.flags.c_contiguous
            assert half.shape == g.shape[:-1] + (n // 2 + 1,)
            assert half.tobytes() == np.ascontiguousarray(k.multiplier[..., : n // 2 + 1]).tobytes()

    def test_grid_mismatch(self):
        g = hf.Grid(space_dim=1, points_per_dim=16, box_length=10.0)
        other = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        with pytest.raises(hf.SizeMismatchError):
            hf.convolve_density(k, hf.MultiField(other, np.zeros((1,) + other.shape)))


class TestPairInteraction:
    def test_zero_field(self):
        g = hf.Grid(space_dim=1, points_per_dim=16, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        zero = hf.MultiField(g, np.zeros((1,) + g.shape))
        assert hf.pair_interaction(4.0, zero, random_field(g), k, 2.0) == 0.0

    def test_symmetry(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        f, h = random_field(g, 1), random_field(g, 2)
        a = hf.pair_interaction(2.0, f, h, k, 2.0)
        b = hf.pair_interaction(2.0, h, f, k, 2.0)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_direct_sum_oracle(self):
        g = hf.Grid(space_dim=1, points_per_dim=16, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        f, h = random_field(g, 3), random_field(g, 4)
        spectral = hf.pair_interaction(4.0, f, h, k, 2.0)
        direct = direct_pair_interaction(4.0, f, h, k, 2.0)
        assert abs(spectral - direct) <= 1e-10 * abs(direct)
        # a tuple pairs its total density sum_j |f_j|^p
        pair = hf.MultiField(g, np.concatenate([f.data, h.data]))
        spectral = hf.pair_interaction(4.0, pair, h, k, 2.0)
        direct = direct_pair_interaction(4.0, pair, h, k, 2.0)
        assert abs(spectral - direct) <= 1e-10 * abs(direct)

    def test_rejects_nonpositive_q(self):
        g = hf.Grid(space_dim=1, points_per_dim=16, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        with pytest.raises(ValueError):
            hf.pair_interaction(0.0, random_field(g), random_field(g), k, 2.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), q=st.floats(0.5, 8.0))
    def test_nonnegative_and_symmetric(self, seed, q):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        f, h = random_field(g, seed), random_field(g, seed + 1)
        val = hf.pair_interaction(q, f, h, k, 2.0)
        assert val >= -1e-12
        assert abs(val - hf.pair_interaction(q, h, f, k, 2.0)) <= 1e-12 * max(val, 1.0)


class TestEnergies:
    def test_zero_multifield(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        mf = hf.MultiField(g, np.zeros((2,) + g.shape, dtype=complex))
        br = hf.total_energy(mf, k, 2.0)
        assert br.kinetic == br.interaction == br.total == 0.0

    def test_single_component_agreement(self):
        # the energies of one-component members of a stack are the bits of
        # each profile's own energy
        g = hf.Grid(space_dim=1, points_per_dim=64, box_length=20.0)
        k = hf.build_kernel(g, 0.5)
        f, h = random_field(g, 7), random_field(g, 6)
        stacked = hf.total_energy(np.stack([f.data, h.data]), k, 2.0).total
        assert stacked.tolist() == [hf.total_energy(f, k, 2.0).total, hf.total_energy(h, k, 2.0).total]

    def test_vanishing_second_component(self):
        g = hf.Grid(space_dim=1, points_per_dim=64, box_length=20.0)
        k = hf.build_kernel(g, 0.5)
        f = random_field(g, 8)
        total = hf.total_energy(hf.MultiField(g, np.concatenate([f.data, np.zeros_like(f.data)])), k, 2.0).total
        assert total == pytest.approx(hf.total_energy(f, k, 2.0).total, rel=1e-12)

    def test_breakdown_identity(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        br = hf.total_energy(random_field(g, 9), k, 2.0)
        assert br.total == br.kinetic - br.interaction

    def test_single_energy_direct_oracle(self):
        g = hf.Grid(space_dim=1, points_per_dim=16, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        f = random_field(g, 10)
        direct = 0.5 * hf.grad_norm_sq(f) - direct_pair_interaction(4.0, f, f, k, 2.0)
        assert abs(hf.total_energy(f, k, 2.0).total - direct) <= 1e-10 * abs(direct)

    def test_pair_decomposition_m2(self):
        # I(u1, u2) = E(u1) + E(u2) - F_p(u1, u2)
        g = hf.Grid(space_dim=1, points_per_dim=64, box_length=20.0)
        k = hf.build_kernel(g, 0.5)
        u1, u2 = random_field(g, 11), random_field(g, 12)
        total = hf.total_energy(hf.MultiField(g, np.concatenate([u1.data, u2.data])), k, 2.0).total
        e1, e2 = hf.total_energy(np.stack([u1.data, u2.data]), k, 2.0).total
        decomposed = e1 + e2 - hf.pair_interaction(2.0, u1, u2, k, 2.0)
        assert abs(total - decomposed) <= 1e-11 * abs(total)


class TestGradient:
    def test_zero_field(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        grad = hf.energy_gradient(hf.MultiField(g, np.zeros((2,) + g.shape, dtype=complex)), k, 2.0)
        assert np.abs(grad.data).max() == 0.0

    def test_finite_difference_match(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=20.0)
        k = hf.build_kernel(g, 0.5)
        mf = trig_field(g, seed=21, m=2)
        v = trig_field(g, seed=22, m=2)
        grad = hf.energy_gradient(mf, k, 2.0)
        eps = 1e-5
        e_plus = hf.total_energy(hf.MultiField(g, mf.data + eps * v.data), k, 2.0).total
        e_minus = hf.total_energy(hf.MultiField(g, mf.data - eps * v.data), k, 2.0).total
        fd = (e_plus - e_minus) / (2 * eps)
        analytic = hf.inner(grad, v).real
        assert abs(fd - analytic) <= 1e-6 * abs(analytic)

    def test_real_input_real_gradient(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=20.0)
        k = hf.build_kernel(g, 0.5)
        mf = hf.MultiField(g, np.abs(trig_field(g, seed=23, m=2).data).astype(complex))
        grad = hf.energy_gradient(mf, k, 2.0)
        assert np.abs(grad.data.imag).max() <= 1e-12 * max(np.abs(grad.data.real).max(), 1.0)

    def test_non_integer_power(self):
        # p = 2.5 runs through the |z|^(p-2) z branch and still matches FD
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=20.0)
        k = hf.build_kernel(g, 0.5)
        mf = trig_field(g, seed=24, m=1)
        v = trig_field(g, seed=25, m=1)
        grad = hf.energy_gradient(mf, k, 2.5)
        eps = 1e-5
        e_plus = hf.total_energy(hf.MultiField(g, mf.data + eps * v.data), k, 2.5).total
        e_minus = hf.total_energy(hf.MultiField(g, mf.data - eps * v.data), k, 2.5).total
        fd = (e_plus - e_minus) / (2 * eps)
        analytic = hf.inner(grad, v).real
        assert abs(fd - analytic) <= 1e-6 * abs(analytic)


class TestRealStack:
    """A real stack takes the real transforms and agrees with its complex128 twin at roundoff."""

    @pytest.mark.parametrize("p", [2.0, 2.5])
    @pytest.mark.parametrize("space_dim,n,alpha", [(1, 64, 0.5), (2, 16, 1.0), (3, 8, 1.0)])
    def test_energy_and_gradient_match_complex(self, space_dim, n, alpha, p):
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        k = hf.build_kernel(g, alpha)
        x = np.abs(trig_field(g, seed=31, m=2).data)
        real = _EnergyState(k, p, x)
        cplx = _EnergyState(k, p, x.astype(complex))
        assert real.xhat.shape[-1] == n // 2 + 1
        assert np.abs(real.kinetic - cplx.kinetic).max() <= 1e-14 * np.abs(cplx.kinetic).max()
        assert abs(real.total - cplx.total) <= 1e-14 * abs(cplx.total)
        grad = real.gradient()
        assert grad.dtype == np.float64
        reference = cplx.gradient()
        assert np.abs(grad - reference).max() <= 1e-13 * np.abs(reference).max()


class TestElResidual:
    def test_zero_field_zero_residual(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        mf = hf.MultiField(g, np.zeros((2,) + g.shape, dtype=complex))
        res = hf.el_residual(mf, [0.3, -1.2], k, 2.0)
        assert np.all(res == 0.0)

    def test_least_squares_in_lambda(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=20.0)
        k = hf.build_kernel(g, 0.5)
        mf = trig_field(g, seed=31, m=1)
        lam_star = hf.extract_multipliers(mf, k, 2.0)
        base = hf.el_residual(mf, lam_star, k, 2.0)[0]
        for delta in (0.05, -0.05, 0.3):
            assert hf.el_residual(mf, lam_star + delta, k, 2.0)[0] >= base

    def test_rejects_nonfinite_lambda(self):
        g = hf.Grid(space_dim=1, points_per_dim=32, box_length=10.0)
        k = hf.build_kernel(g, 0.5)
        mf = trig_field(g, seed=32, m=1)
        with pytest.raises(ValueError):
            hf.el_residual(mf, [float("nan")], k, 2.0)


class TestInequalityShapes:
    def test_hls_shape_bound_stable_under_refinement(self, desk_params):
        # ratio F_q(f,f) / ||f||_{L^s}^{2p} with s = 2pr/(2r-1) the
        # interpolation index, r = N/alpha (8/3 on the desk); finite on a
        # random family and stable within a factor 2 across meshes
        p = desk_params.power
        r = desk_params.space_dim / desk_params.kernel_exponent
        s = 2 * p * r / (2 * r - 1)

        def max_ratio(n):
            g = hf.Grid(1, n, 20.0)
            k = hf.build_kernel(g, desk_params.kernel_exponent)
            ratios = []
            for seed in range(10):
                f = trig_field(g, seed=100 + seed).components[0]
                num = hf.pair_interaction(2 * p, f, f, k, p)
                den = hf.lp_norm(f, s) ** (2 * p)
                ratios.append(num / den)
            return max(ratios)

        r64, r128 = max_ratio(64), max_ratio(128)
        assert np.isfinite(r64) and np.isfinite(r128)
        assert 0.5 <= r64 / r128 <= 2.0

    def test_gn_shape_dilation_invariance(self, desk_params):
        # ||u||_{L^s}^2 / (||grad u||^(2 theta) ||u||^(2(1-theta))) is invariant
        # under the mass-critical dilation when theta = N(s-2)/(2s); the
        # rescaled Gaussians are sampled in closed form
        r = desk_params.space_dim / desk_params.kernel_exponent
        s = 2 * desk_params.power * r / (2 * r - 1)
        n_dim = 1
        theta = n_dim * (s - 2) / (2 * s)
        g = hf.Grid(1, 256, 40.0)

        def ratio(f):
            return hf.lp_norm(f, s) ** 2 / (
                hf.grad_norm_sq(f) ** theta * hf.grid.norms_sq(g, f.data)[0] ** (1 - theta)
            )

        base = ratio(rescaled_gaussian(g, 1.5))
        for factor in (0.8, 1.25):
            assert abs(ratio(rescaled_gaussian(g, 1.5, factor)) / base - 1) <= 1e-3


class TestVirialResidual:
    def test_definition(self):
        energy = hf.EnergyBreakdown(1.0, 3.0)
        assert hf.virial_residual(energy, 0.5) == (2.0 - 1.5) / 2.0
        assert np.isnan(hf.virial_residual(hf.EnergyBreakdown(1.0, 1.0), 0.5))

    def test_numerator_is_the_dilation_derivative(self, desk_params):
        # d/db E(b^(N/2) u(b x)) at b = 1 is 2K - sP on R^N; on the grid it
        # differs by the sampled kernel's error, which falls as h^(1/2)
        # (measured 3.2e-3 and 2.3e-3 of |E| at n = 256 and 512)
        s = desk_params.dilation_exponent
        errors = []
        for n in (256, 512):
            g = hf.Grid(1, n, 40.0)
            kernel = hf.build_kernel(g, desk_params.kernel_exponent)

            def energy(b):
                return hf.total_energy(rescaled_gaussian(g, 2.0, b), kernel, desk_params.power)

            e, step = energy(1.0), 1e-4
            derivative = (energy(1 + step).total - energy(1 - step).total) / (2 * step)
            errors.append(abs(derivative - (2 * e.kinetic - s * e.interaction)) / abs(e.total))
        assert errors[0] <= 5e-3
        assert 1.3 <= errors[0] / errors[1] <= 1.55  # 2^(1/2) = 1.41


class TestOneImplementation:
    """Every real convolution runs grid.convolve_real, and every |z|^s runs abs_power."""

    MODULES = ("grid", "hartree", "minimize", "evolve", "analysis", "cli")

    @staticmethod
    def spy_everywhere(monkeypatch, home, name, record):
        # wrap each module binding of the original, so a caller that imported the name is caught too
        original = getattr(home, name)

        def spy(*args, **kwargs):
            record.append(args[:3])
            return original(*args, **kwargs)

        for module_name in TestOneImplementation.MODULES:
            module = importlib.import_module(f"hartreeflow.{module_name}")
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)

    def test_every_convolution_calls_convolve_real(self, monkeypatch, desk_kernel, gs_m2):
        calls = []
        self.spy_everywhere(monkeypatch, hf.grid, "convolve_real", calls)
        fields, g, half = gs_m2.fields, gs_m2.fields.grid, desk_kernel.half_multiplier
        symbols = {
            "total_energy": (lambda: hf.total_energy(fields, desk_kernel, 2.0), half),
            "pair_interaction": (lambda: hf.pair_interaction(2.0, *fields.components, desk_kernel, 2.0), half),
            "convolve_density": (lambda: hf.convolve_density(desk_kernel, fields), half),
            "orbit_distance": (lambda: hf.orbit_distance(fields, gs_m2), gs_m2.correlation_spectrum),
        }
        for name, (call, symbol) in symbols.items():
            calls.clear()
            call()
            assert len(calls) == 1 and calls[0][2] is symbol, name
        # the propagator passes its workspace's copy of the half symbol, spread to the spectrum's shape
        calls.clear()
        Propagator(g, desk_kernel, 2.0, 1e-3).step_array(fields.data)
        assert len(calls) == 2
        assert all(np.array_equal(c[2], np.broadcast_to(half, c[2].shape)) for c in calls)
        # a ball's half spectrum is the symbol, the density the input
        calls.clear()
        hf.concentration_profile(fields, [1.0, 2.0])
        assert len(calls) == 2
        for (_, rho, ball_hat), r in zip(calls, (1.0, 2.0)):
            assert rho.shape == (1,) + g.shape
            assert np.array_equal(ball_hat, hf.grid.rfftn_grid(g, (g.radius <= r).astype(float)))

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_every_power_of_the_modulus_calls_abs_power(self, monkeypatch, desk_kernel, gs_m2, p):
        # the density's |z|^p, then the |z|^(p-2) of the half-kick and of the gradient
        calls = []
        self.spy_everywhere(monkeypatch, hf.hartree, "abs_power", calls)
        x = gs_m2.fields.data
        Propagator(gs_m2.fields.grid, desk_kernel, p, 1e-3)._half_kick_phase(x)
        hf.energy_gradient(gs_m2.fields, desk_kernel, p)
        exponents = [p, p - 2, p, p - 2] if p != 2 else [p, p]
        assert [c[1] for c in calls] == exponents
