import math

import pytest
from hypothesis import given, settings, strategies as st

import hartreeflow as hf
from hartreeflow.params import InvalidParameterError


def make_params(n_dim, p, alpha, m=1, masses=None, n=64, box=20.0):
    return hf.SystemParams(
        space_dim=n_dim,
        component_count=m,
        power=p,
        kernel_exponent=alpha,
        masses=masses or (1.0,) * m,
        box_length=box,
        points_per_dim=n,
    )


class TestValidateAssumptions:
    def test_n3_p2_alpha1_passes(self):
        # direct evaluation: r = 3, 1/3 < 2/3, p-bound 7/3 > 2, growth bound 2 > 1
        report = hf.validate_assumptions(make_params(3, 2.0, 1.0))
        assert report.passed
        assert report.clause("h0.weak-index").margin == pytest.approx(2 / 3 - 1 / 3)
        assert report.clause("h0.power-upper").margin == pytest.approx(7 / 3 - 2)
        assert report.clause("h2.kernel-growth").margin == pytest.approx(2 - 1)

    def test_n3_p3_alpha1_fails_power_upper(self):
        report = hf.validate_assumptions(make_params(3, 3.0, 1.0))
        assert not report.passed
        assert not report.clause("h0.power-upper").passed
        assert report.clause("h0.power-upper").margin == pytest.approx(7 / 3 - 3)

    def test_n1_p2_alpha_half_passes(self):
        report = hf.validate_assumptions(make_params(1, 2.0, 0.5))
        assert report.passed
        assert report.clause("h0.power-upper").margin == pytest.approx(3.5 - 2.0)
        assert report.clause("h2.kernel-growth").margin == pytest.approx(2 - 0.5)

    def test_zero_margin_is_fail_for_strict_clause(self):
        # alpha = 2 makes the weak-index margin exactly 0, which must fail
        report = hf.validate_assumptions(make_params(1, 2.0, 2.0))
        clause = report.clause("h0.weak-index")
        assert clause.margin == 0.0
        assert not clause.passed

    def test_power_lower_is_non_strict(self):
        report = hf.validate_assumptions(make_params(1, 2.0, 0.5))
        clause = report.clause("h0.power-lower")
        assert clause.margin == 0.0
        assert clause.passed

    def test_invalid_inputs_raise(self):
        with pytest.raises(InvalidParameterError):
            make_params(1, float("nan"), 0.5)
        with pytest.raises(InvalidParameterError):
            make_params(1, 2.0, -0.5)
        with pytest.raises(InvalidParameterError):
            make_params(1, 2.0, 0.5, m=4, masses=(1.0,) * 4)
        with pytest.raises(InvalidParameterError):
            make_params(1, 2.0, 0.5, n=7)
        with pytest.raises(InvalidParameterError):
            make_params(1, 2.0, 0.5, masses=(0.0,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("space_dim", 1.0),
            ("space_dim", True),
            ("component_count", 1.0),
            ("component_count", True),
            ("points_per_dim", 256.0),
            ("points_per_dim", True),
        ],
    )
    def test_dimensions_must_be_ints(self, field, value):
        args = dict(space_dim=1, component_count=1, power=2.0, kernel_exponent=0.5, masses=(1.0,), box_length=20.0, points_per_dim=64)
        with pytest.raises(InvalidParameterError, match=f"{field} must be an int"):
            hf.SystemParams(**(args | {field: value}))

    @settings(max_examples=50, deadline=None)
    @given(
        n_dim=st.integers(1, 3),
        alpha=st.floats(0.05, 1.95),
        p=st.floats(2.0, 4.0),
        frac=st.floats(0.0, 1.0),
    )
    def test_monotone_in_power(self, n_dim, alpha, p, frac):
        # if (N, p, alpha) passes then every p' in [2, p] passes as well
        base = hf.validate_assumptions(make_params(n_dim, p, alpha))
        if not base.passed:
            return
        p_prime = 2.0 + frac * (p - 2.0)
        assert hf.validate_assumptions(make_params(n_dim, p_prime, alpha)).passed


class TestDeriveExponents:
    """The exponents SystemParams derives from (N, p, alpha): s and gamma."""

    def test_n3_p2_alpha1_values(self):
        # s = 6 - 6 + 1 = 1, gamma = 1 + 2/(2 - 1) = 3
        params = make_params(3, 2.0, 1.0)
        assert params.dilation_exponent == 1.0
        assert params.mass_scaling_exponent == pytest.approx(3.0)

    def test_n1_p2_alpha_half_values(self):
        # the desk: s = 1/2, gamma = 1 + 2/(3/2) = 7/3
        params = make_params(1, 2.0, 0.5)
        assert params.dilation_exponent == 0.5
        assert params.mass_scaling_exponent == pytest.approx(7 / 3)

    @pytest.mark.parametrize("p, gamma", [(2.5, 4.0), (3.0, 9.0), (3.25, 19.0)])
    def test_mass_scaling_exponent_values(self, p, gamma):
        # gamma = 1 + 2(p - 1)/(2 - s) at N = 1, alpha = 1/2, where s = p - 3/2
        assert make_params(1, p, 0.5).mass_scaling_exponent == pytest.approx(gamma, rel=1e-12)

    def test_requires_passing_validation(self):
        # s = 4 at N = 3, p = 3, alpha = 1, which h2.kernel-growth refuses
        with pytest.raises(InvalidParameterError, match=r"\(h2\.kernel-growth\), got s = 4$"):
            make_params(3, 3.0, 1.0).mass_scaling_exponent

    def test_mass_scaling_exponent_undefined_at_s_two(self):
        # N = 1, p = 3.5, alpha = 1/2 is the critical power: s = 2 exactly
        params = make_params(1, 3.5, 0.5)
        assert params.dilation_exponent == 2.0
        with pytest.raises(InvalidParameterError, match=r"h2\.kernel-growth"):
            params.mass_scaling_exponent

    def test_dilation_exponent_values(self):
        # s = Np - 2N + alpha
        assert make_params(1, 2.0, 0.5).dilation_exponent == 0.5
        assert make_params(2, 2.0, 1.0).dilation_exponent == 1.0
        assert make_params(3, 2.0, 1.0).dilation_exponent == 1.0
        # a property of the params, defined where mass_scaling_exponent refuses them
        assert make_params(3, 3.0, 1.0).dilation_exponent == 4.0

    @settings(max_examples=50, deadline=None)
    @given(n_dim=st.integers(1, 3), alpha=st.floats(0.05, 1.95), p=st.floats(2.0, 4.0))
    def test_kernel_growth_margin_is_two_minus_dilation_exponent(self, n_dim, alpha, p):
        # h2.kernel-growth is exactly s < 2, where the virial identity makes I < 0
        params = make_params(n_dim, p, alpha)
        margin = hf.validate_assumptions(params).clause("h2.kernel-growth").margin
        assert margin == pytest.approx(2 - params.dilation_exponent, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(n_dim=st.integers(1, 3), alpha=st.floats(0.05, 1.95), p=st.floats(2.0, 4.0))
    def test_boundedness_margin_positive_whenever_valid(self, n_dim, alpha, p):
        # every valid config has s < 2, so gamma is finite and above 1: the
        # infimum scales superlinearly in the masses
        params = make_params(n_dim, p, alpha)
        if not hf.validate_assumptions(params).passed:
            return
        assert params.dilation_exponent < 2
        gamma = params.mass_scaling_exponent
        assert math.isfinite(gamma) and gamma > 1

    @settings(max_examples=50, deadline=None)
    @given(n_dim=st.integers(1, 3), alpha=st.floats(0.05, 1.95), p=st.floats(2.0, 4.0))
    def test_power_upper_is_kernel_growth_over_n(self, n_dim, alpha, p):
        # for W = |x|^(-alpha), r = N/alpha makes (2r-1)/r + 2/N - p equal to
        # (2 + 2N - pN - alpha)/N: the two clauses are one inequality, kept
        # apart as the paper's separate hypotheses for a general W
        report = hf.validate_assumptions(make_params(n_dim, p, alpha))
        power_upper = report.clause("h0.power-upper").margin
        kernel_growth = report.clause("h2.kernel-growth").margin
        assert n_dim * power_upper == pytest.approx(kernel_growth, abs=1e-12)
