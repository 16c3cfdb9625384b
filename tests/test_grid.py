import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hartreeflow as hf
from conftest import gaussian_field, trig_field


@pytest.fixture()
def grid1d():
    return hf.Grid(space_dim=1, points_per_dim=64, box_length=20.0)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return hf.MultiField(grid, data[None])


def spectrum(grid, data):
    """The quadrature-weighted spectrum h^N * FFT(f)."""
    return grid.cell_volume * hf.grid.fftn_grid(grid, data)


def mass(f):
    return float(hf.grid.norms_sq(f.grid, f.data).sum())


class TestTransforms:
    def test_round_trip(self, grid1d):
        f = random_field(grid1d)
        back = hf.grid.ifftn_grid(grid1d, spectrum(grid1d, f.data)) / grid1d.cell_volume
        err = np.abs(back - f.data).max() / np.abs(f.data).max()
        assert err <= 1e-12

    def test_constant_concentrates_at_zero_mode(self, grid1d):
        c = 2.5 + 0.5j
        spec = spectrum(grid1d, np.full(grid1d.shape, c))
        assert spec[0] == pytest.approx(c * grid1d.box_length, rel=1e-12)
        assert np.abs(spec[1:]).max() <= 1e-10 * abs(spec[0])

    def test_plane_wave_single_bin(self, grid1d):
        k = 2 * np.pi * 5 / grid1d.box_length
        spec = spectrum(grid1d, np.exp(1j * k * grid1d.axis_coords))
        idx = int(np.argmax(np.abs(spec)))
        assert idx == 5
        others = np.abs(np.delete(spec, idx)).max()
        assert others <= 1e-10 * np.abs(spec[idx])

    def test_parseval(self, grid1d):
        f = random_field(grid1d, seed=3)
        lhs = mass(f)
        rhs = np.sum(np.abs(spectrum(grid1d, f.data)) ** 2) / grid1d.box_length**grid1d.space_dim
        assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_size_mismatch_raises(self, grid1d):
        with pytest.raises(hf.SizeMismatchError):
            hf.MultiField(grid1d, np.zeros((1, 12), dtype=complex))

    @pytest.mark.parametrize("space_dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_real_transforms_are_the_half_spectrum(self, space_dim, n):
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        rho = np.random.default_rng(space_dim).random((3, 2) + g.shape)
        half = hf.grid.rfftn_grid(g, rho)
        full = hf.grid.fftn_grid(g, rho)
        assert half.shape == (3, 2) + g.shape[:-1] + (n // 2 + 1,)
        assert np.abs(half - full[..., : n // 2 + 1]).max() <= 1e-13 * np.abs(full).max()
        back = hf.grid.irfftn_grid(g, half)
        assert back.shape == rho.shape and back.dtype == np.float64
        assert np.abs(back - rho).max() <= 1e-13 * np.abs(rho).max()


class TestHalfSpectrum:
    """The half spectrum of a real stack carries its kinetic sum and its mass."""

    @pytest.mark.parametrize("space_dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_half_k_squared_is_slice_of_full(self, space_dim, n):
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        assert np.array_equal(g.half_k_squared, g.k_squared[..., : n // 2 + 1])
        assert g.half_k_squared.flags.c_contiguous

    @pytest.mark.parametrize("space_dim,n", [(1, 64), (1, 256), (2, 16), (2, 64), (3, 8)])
    def test_weighted_half_sum_is_full_kinetic_sum(self, space_dim, n):
        # bin 0 and the Nyquist bin stand once in the full spectrum, every
        # other half-spectrum bin twice (with its mirror k -> -k)
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        x = np.random.default_rng(n + space_dim).standard_normal((3, 2) + g.shape)
        half = hf.grid.rfftn_grid(g, x)
        full = hf.grid.fftn_grid(g, x)
        half_sum = np.sum(g.half_k_squared_weighted * np.abs(half) ** 2, axis=g.spatial_axes)
        full_sum = np.sum(g.k_squared * np.abs(full) ** 2, axis=g.spatial_axes)
        assert np.abs(half_sum - full_sum).max() <= 1e-14 * np.abs(full_sum).max()

    @pytest.mark.parametrize("space_dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_forward_spectrum_picks_transforms_by_dtype(self, space_dim, n):
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        x = np.random.default_rng(space_dim).standard_normal((2,) + g.shape)
        z = x.astype(complex)
        xhat = hf.grid.forward_spectrum(g, x)
        assert np.array_equal(xhat, hf.grid.rfftn_grid(g, x))
        k2, k2_weighted, pair_weight = hf.grid.spectral_weights(g, x.dtype)
        assert k2 is g.half_k_squared and k2_weighted is g.half_k_squared_weighted
        assert pair_weight is g.half_pair_weight
        zhat = hf.grid.forward_spectrum(g, z)
        assert np.array_equal(zhat, hf.grid.fftn_grid(g, z))
        k2, k2_weighted, pair_weight = hf.grid.spectral_weights(g, z.dtype)
        assert k2 is g.k_squared and k2_weighted is g.k_squared and pair_weight == 1.0
        back = hf.grid.inverse_spectrum(g, xhat, x.dtype)
        assert back.dtype == np.float64 and np.allclose(back, x, rtol=0, atol=1e-13)
        assert np.array_equal(hf.grid.inverse_spectrum(g, zhat, z.dtype), hf.grid.ifftn_grid(g, zhat))

    @pytest.mark.parametrize("space_dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_norms_of_real_stack_match_complex(self, space_dim, n):
        # |x|^2 of a real array skips a zero imaginary part: x^2 + 0 = x^2
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        x = np.random.default_rng(space_dim).standard_normal((2,) + g.shape)
        assert np.array_equal(hf.grid.norms_sq(g, x), hf.grid.norms_sq(g, x.astype(complex)))


def nd_reference(name, grid, arr):
    """numpy's n-D function over the trailing spatial axes, the transforms' former formula."""
    nd = grid.space_dim
    axes = tuple(range(arr.ndim - nd, arr.ndim))
    s = grid.shape if name == "irfftn" else arr.shape[-nd:]
    return getattr(np.fft, name)(arr, s=s, axes=axes)


STACKS = [(space_dim, n, lead) for space_dim, n in [(1, 64), (2, 16), (3, 8)] for lead in [(), (3,), (2, 3)]]


class TestTransformsBitIdentical:
    """Every grid transform gives the bits of numpy's n-D function on the spatial axes."""

    @pytest.mark.parametrize("space_dim,n,lead", STACKS)
    def test_complex_pair(self, space_dim, n, lead):
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        rng = np.random.default_rng(len(lead) + 3 * space_dim)
        x = rng.standard_normal(lead + g.shape) + 1j * rng.standard_normal(lead + g.shape)
        for name, fn in (("fftn", hf.grid.fftn_grid), ("ifftn", hf.grid.ifftn_grid)):
            expected = nd_reference(name, g, x)
            assert np.array_equal(fn(g, x), expected)
            aliased = x.copy()
            assert fn(g, aliased, out=aliased) is aliased
            assert np.array_equal(aliased, expected)

    @pytest.mark.parametrize("space_dim,n,lead", STACKS)
    def test_real_pair(self, space_dim, n, lead):
        g = hf.Grid(space_dim=space_dim, points_per_dim=n, box_length=10.0)
        rho = np.random.default_rng(len(lead) + 3 * space_dim).random(lead + g.shape)
        half = hf.grid.rfftn_grid(g, rho)
        assert np.array_equal(half, nd_reference("rfftn", g, rho))
        assert np.array_equal(hf.grid.irfftn_grid(g, half), nd_reference("irfftn", g, half))


class TestNorms:
    def test_zero_field(self, grid1d):
        z = hf.MultiField(grid1d, np.zeros((1,) + grid1d.shape, dtype=complex))
        assert mass(z) == 0.0
        assert hf.grad_norm_sq(z) == 0.0
        assert hf.lp_norm(z, 3.0) == 0.0

    def test_plane_wave_mass_exact(self, grid1d):
        a = 1.7
        f = hf.MultiField(grid1d, a * np.exp(1j * 2 * np.pi * 3 * grid1d.axis_coords / grid1d.box_length)[None])
        assert mass(f) == pytest.approx(a**2 * grid1d.box_length, rel=1e-13)

    def test_grad_norm_against_converged_finite_differences(self):
        # independent oracle: second-order central differences on refined grids,
        # Richardson-extrapolated to remove the O(h^2) term
        sigma, box = 2.0, 40.0

        def fd_value(n):
            g = hf.Grid(1, n, box)
            u = np.exp(-g.axis_coords**2 / (2 * sigma**2))
            du = (np.roll(u, -1) - np.roll(u, 1)) / (2 * g.spacing)
            return np.sum(du**2) * g.spacing

        coarse, fine = fd_value(2048), fd_value(4096)
        oracle = (4 * fine - coarse) / 3
        g = hf.Grid(1, 128, box)
        spectral = hf.grad_norm_sq(hf.MultiField(g, np.exp(-g.axis_coords**2 / (2 * sigma**2))[None]))
        assert abs(spectral - oracle) <= 1e-6 * oracle

    def test_lp_norm_rejects_s_below_one(self, grid1d):
        with pytest.raises(ValueError):
            hf.lp_norm(random_field(grid1d), 0.5)

    @pytest.mark.parametrize("s", [np.nan, np.inf])
    def test_lp_norm_rejects_nonfinite_s(self, grid1d, s):
        with pytest.raises(ValueError, match="exponent s"):
            hf.lp_norm(random_field(grid1d), s)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_mass_nonnegative(self, seed):
        g = hf.Grid(1, 32, 10.0)
        assert mass(random_field(g, seed)) >= 0.0


class TestDilate:
    def test_identity(self, grid1d):
        f = random_field(grid1d, seed=5)
        out = hf.dilate(f, 1.0)
        assert np.abs(out.data - f.data).max() <= 1e-12 * np.abs(f.data).max()

    def test_mass_preserved_on_bump(self):
        g = hf.Grid(1, 256, 40.0)
        f = gaussian_field(g, sigma=2.0)
        out = hf.dilate(f, 0.5)
        assert abs(mass(out) - mass(f)) <= 1e-6 * mass(f)

    def test_kinetic_scaling(self):
        g = hf.Grid(1, 256, 40.0)
        f = gaussian_field(g, sigma=2.0)
        base = hf.grad_norm_sq(f)
        for theta in (0.5, 0.8, 1.5):
            scaled = hf.grad_norm_sq(hf.dilate(f, theta))
            assert abs(scaled - theta**2 * base) <= 1e-4 * theta**2 * base

    def test_acts_on_every_component(self):
        g = hf.Grid(2, 16, 30.0)
        mf = trig_field(g, seed=6, m=2)
        out = hf.dilate(mf, 0.8)
        for j, c in enumerate(mf.components):
            alone = hf.dilate(c, 0.8).data[0]
            assert np.abs(out.data[j] - alone).max() <= 1e-13 * np.abs(alone).max()

    def test_rejects_nonpositive_theta(self, grid1d):
        with pytest.raises(ValueError):
            hf.dilate(random_field(grid1d), 0.0)

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_rejects_nonfinite_theta(self, grid1d, theta):
        with pytest.raises(ValueError, match="theta"):
            hf.dilate(random_field(grid1d), theta)

    @settings(max_examples=15, deadline=None)
    @given(theta=st.floats(0.5, 1.5))
    def test_mass_preserved_property(self, theta):
        g = hf.Grid(1, 128, 40.0)
        f = gaussian_field(g, sigma=1.5)
        assert abs(mass(hf.dilate(f, theta)) - mass(f)) <= 1e-6 * mass(f)

    def test_dilate_2d_mass(self):
        g = hf.Grid(2, 48, 30.0)
        f = gaussian_field(g, sigma=1.5)
        out = hf.dilate(f, 0.8)
        assert abs(mass(out) - mass(f)) <= 1e-6 * mass(f)


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path, grid1d):
        mf = hf.MultiField(grid1d, np.concatenate([random_field(grid1d, 1).data, random_field(grid1d, 2).data]))
        path = tmp_path / "state.chfld"
        hf.write_snapshot(path, mf)
        back = hf.read_snapshot(path)
        assert back.grid == mf.grid
        assert np.array_equal(back.data, mf.data)

    def test_header_layout(self, tmp_path):
        g = hf.Grid(space_dim=1, points_per_dim=8, box_length=2.0)
        mf = hf.MultiField(g, np.zeros((1, 8), dtype=complex))
        path = tmp_path / "h.chfld"
        hf.write_snapshot(path, mf)
        blob = path.read_bytes()
        assert blob[:7] == b"CHFLD1\0"
        import struct

        n_dim, m, n, box = struct.unpack("<IIId", blob[7:27])
        assert (n_dim, m, n, box) == (1, 1, 8, 2.0)
        assert len(blob) == 27 + 2 * 8 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.chfld"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(ValueError):
            hf.read_snapshot(path)

    @pytest.mark.parametrize("size,part", [(7, "header"), (20, "header"), (26, "header"), (40, "payload"), (43, "payload")])
    def test_truncated_file_rejected(self, tmp_path, grid1d, size, part):
        path = tmp_path / "cut.chfld"
        hf.write_snapshot(path, random_field(grid1d))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"snapshot {part} truncated"):
            hf.read_snapshot(path)


class TestGridArguments:
    @pytest.mark.parametrize("box_length", [np.inf, -np.inf, np.nan, 0.0])
    def test_rejects_unusable_box_length(self, box_length):
        with pytest.raises(ValueError, match="box_length"):
            hf.Grid(space_dim=1, points_per_dim=64, box_length=box_length)

    @pytest.mark.parametrize("field, value", [("space_dim", 1.0), ("space_dim", True), ("points_per_dim", 64.0), ("points_per_dim", True)])
    def test_dimensions_must_be_ints(self, field, value):
        args = dict(space_dim=1, points_per_dim=64, box_length=20.0)
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            hf.Grid(**(args | {field: value}))


class TestMultiField:
    def test_components_share_grid(self, grid1d):
        # each component is a one-component view on the MultiField's grid
        mf = hf.MultiField(grid1d, np.concatenate([random_field(grid1d, 1).data, random_field(grid1d, 2).data]))
        for j, c in enumerate(mf.components):
            assert isinstance(c, hf.MultiField) and c.grid == grid1d and c.m == 1
            assert np.shares_memory(c.data, mf.data) and np.array_equal(c.data[0], mf.data[j])

    def test_masses_vector(self, grid1d):
        mf = hf.MultiField(grid1d, np.concatenate([random_field(grid1d, 1).data, random_field(grid1d, 2).data]))
        masses = hf.grid.norms_sq(grid1d, mf.data)
        assert masses == pytest.approx([mass(c) for c in mf.components])

    def test_trig_field_consistent_across_resolutions(self):
        # the helper samples one continuum function, so masses agree across grids
        g1, g2 = hf.Grid(1, 64, 20.0), hf.Grid(1, 128, 20.0)
        m1 = mass(trig_field(g1, seed=9).components[0])
        m2 = mass(trig_field(g2, seed=9).components[0])
        assert m1 == pytest.approx(m2, rel=1e-12)

    def test_field_is_a_one_component_multifield(self, grid1d):
        a = np.random.default_rng(4).standard_normal(grid1d.shape)
        f = hf.Field(grid1d, a)
        assert isinstance(f, hf.MultiField) and f.m == 1 and f.grid == grid1d
        assert np.array_equal(f.data[0], a)
        with pytest.raises(hf.SizeMismatchError):
            hf.Field(grid1d, np.zeros(12))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_h1_norms_of_the_components_have_one_value_each(self, m):
        # the per-component H^1 norms that scale a residual vector of shape
        # (m,): an (m, 1) shape would broadcast residual / h1 to m x m
        g = hf.Grid(1, 64, 20.0)
        kernel = hf.build_kernel(g, 0.5)
        mf = trig_field(g, seed=20 + m, m=m)
        h1 = np.sqrt([hf.h1_norm_sq(c) for c in mf.components])
        assert h1.shape == (m,)
        kinetic = hf.total_energy(mf.data[:, None], kernel, 2.0).kinetic
        assert h1**2 == pytest.approx(hf.grid.norms_sq(g, mf.data) + 2 * kinetic, rel=1e-12)
        assert (hf.el_residual(mf, np.ones(m), kernel, 2.0) / h1).shape == (m,)
        assert hf.h1_norm_sq(mf) == pytest.approx(np.sum(h1**2), rel=1e-12)
