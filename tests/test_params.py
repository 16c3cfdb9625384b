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
    def test_n3_p2_alpha1_values(self):
        # arithmetic from the definitions: r = 3, t = 6/5, mu = 3/12 = 0.25
        exps = hf.derive_exponents(make_params(3, 2.0, 1.0))
        assert exps.weak_lr_index == pytest.approx(3.0)
        assert exps.hls_dual_index == pytest.approx(6 / 5)
        assert exps.gn_exponent == pytest.approx(0.25)
        assert 2 * exps.gn_exponent * 2.0 == pytest.approx(1.0)
        assert exps.growth_exponent == 1.0

    def test_n1_p2_alpha_half_values(self):
        exps = hf.derive_exponents(make_params(1, 2.0, 0.5))
        assert exps.weak_lr_index == pytest.approx(2.0)
        assert exps.gn_exponent == pytest.approx(0.125)
        assert exps.interp_index == pytest.approx(8 / 3)

    def test_requires_passing_validation(self):
        with pytest.raises(InvalidParameterError):
            hf.derive_exponents(make_params(3, 3.0, 1.0))

    def test_dilation_exponent_values(self):
        # s = Np - 2N + alpha
        assert make_params(1, 2.0, 0.5).dilation_exponent == 0.5
        assert make_params(2, 2.0, 1.0).dilation_exponent == 1.0
        assert make_params(3, 2.0, 1.0).dilation_exponent == 1.0
        # a property of the params, defined where derive_exponents refuses them
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
        params = make_params(n_dim, p, alpha)
        if not hf.validate_assumptions(params).passed:
            return
        exps = hf.derive_exponents(params)
        # 2 mu p < 2 holds with strictly positive margin for every valid config
        assert 2 * exps.gn_exponent * p < 2
        assert math.isfinite(exps.hls_dual_index)
        assert exps.gn_exponent > 0
