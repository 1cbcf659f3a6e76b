"""Green sublevel geometry, sweeps, and the kernel limit chain."""

import math

import numpy as np
import pytest

from xibergman import (
    Domain,
    Functional,
    GreenModel,
    HomogeneousPolynomial,
    UnsupportedShapeError,
    azukawa_indicatrix,
    contains,
    default_a_grid,
    limit_chain_check,
    sublevel_domain,
    sweep,
)


class TestSublevelGeometry:
    def test_balanced_disk_scales(self):
        model = GreenModel.balanced(Domain.disk())
        dom = sublevel_domain(model, -1.0)
        assert dom.radius == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert sublevel_domain(model, 0.0).radius == pytest.approx(1.0)

    def test_balanced_bidisc_scales(self):
        model = GreenModel.balanced(Domain.bidisc())
        dom = sublevel_domain(model, math.log(0.5))
        assert dom.radii == pytest.approx((0.5, 0.5))

    def test_moebius_disk_closed_form(self):
        # pseudohyperbolic sublevel disks of the Green function at 0.5
        model = GreenModel.moebius_disk(0.5 + 0j)
        dom = sublevel_domain(model, math.log(0.5))
        s, z0 = 0.5, 0.5
        denom = 1 - s * s * z0 * z0
        assert dom.center[0].real == pytest.approx(z0 * (1 - s * s) / denom, rel=1e-14)
        assert dom.radius == pytest.approx(s * (1 - z0 * z0) / denom, rel=1e-14)

    def test_pole_stays_inside(self):
        model = GreenModel.moebius_disk(0.5 + 0j)
        for a in (-3.0, -1.0, -0.1, 0.0):
            assert contains(sublevel_domain(model, a), model.pole) or a == 0.0

    def test_positive_height_rejected(self):
        model = GreenModel.balanced(Domain.disk())
        with pytest.raises(ValueError):
            sublevel_domain(model, 0.5)

    def test_unbalanced_domain_rejected(self):
        with pytest.raises(ValueError):
            GreenModel.balanced(Domain.disk(1.0, center=0.3 + 0j))


class TestIndicatrix:
    def test_balanced_equals_domain(self):
        for dom in (Domain.disk(), Domain.bidisc(), Domain.ball(dimension=2)):
            model = GreenModel.balanced(dom)
            assert azukawa_indicatrix(model).to_spec() == dom.to_spec()

    def test_moebius_not_supported(self):
        model = GreenModel.moebius_disk(0.5 + 0j)
        with pytest.raises(UnsupportedShapeError):
            azukawa_indicatrix(model)


class TestSweep:
    def test_balanced_scaled_column_constant(self):
        model = GreenModel.balanced(Domain.disk())
        table = sweep(model, Functional.delta((1,)), 1.5,
                      default_a_grid(-3, 0, 7))
        assert not table.flagged
        assert table.max_scaled_deviation() < 1e-9
        col = table.scaled_column()
        assert col[0] == pytest.approx((1.5 + 2) / (2 * math.pi), rel=1e-8)

    def test_moebius_monotone_smoke(self):
        model = GreenModel.moebius_disk(0.5 + 0j)
        table = sweep(model, Functional.delta((0,)), 2.0,
                      default_a_grid(-2, 0, 9), degree=24)
        assert not table.flagged
        assert table.monotonicity_margin() >= -1e-8
        assert table.log_convexity_margin() >= -1e-6

    def test_csv_shape(self):
        model = GreenModel.balanced(Domain.disk())
        table = sweep(model, Functional.delta((0,)), 2.0, [-1.0, 0.0])
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "a,K,scaled,logK,flag"
        assert len(lines) == 3

    def test_json_metadata(self):
        model = GreenModel.balanced(Domain.disk())
        table = sweep(model, Functional.delta((0,)), 2.0, [-1.0, 0.0])
        meta = table.to_json_dict()["metadata"]
        assert meta["kind"] == "balanced"
        assert meta["degree"] == 16

    def test_grid_validation(self):
        model = GreenModel.balanced(Domain.disk())
        xi = Functional.delta((0,))
        with pytest.raises(ValueError):
            sweep(model, xi, 2.0, [])
        with pytest.raises(ValueError):
            sweep(model, xi, 2.0, [-1.0, -2.0])
        with pytest.raises(ValueError):
            sweep(model, xi, 2.0, [-1.0, 0.5])

    def test_higher_target_uses_jet_exponent(self):
        # scaled column for a degree-k target is exp((2 + p k) a) K
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.from_string("z: 1")
        table = sweep(model, H, 2.0, default_a_grid(-2, 0, 5))
        assert table.max_scaled_deviation() < 1e-8


class TestLimitChain:
    def test_disk_plain(self):
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.constant(1.0)
        res = limit_chain_check(model, H, 2.0, default_a_grid(-3, 0, 13))
        assert res.passed
        assert res.lhs >= res.limit - 1e-6 * abs(res.limit)
        assert res.limit >= res.rhs - 1e-6 * abs(res.limit)

    def test_disk_first_order(self):
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.from_string("z: 1")
        res = limit_chain_check(model, H, 1.5, default_a_grid(-3, 0, 13))
        assert res.passed
        assert res.stabilization < 1e-4

    def test_explicit_functional_with_free_part(self):
        # lower-order terms decay along the shrinking family, so the chain
        # still pinches onto the higher-order kernel
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.from_string("z: 1")
        xi = Functional.from_string("1: 1; 0: 0.5")
        res = limit_chain_check(model, H, 2.0,
                                list(np.linspace(-4.0, 0.0, 9)), xi=xi)
        assert res.passed

    def test_p_above_two_rejected(self):
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.constant(1.0)
        with pytest.raises(ValueError):
            limit_chain_check(model, H, 3.0, default_a_grid(-2, 0, 5))


class TestScalingLaw:
    def test_dilation_covariance(self):
        # K on the t-scaled disk at the origin carries t^(-(2 + p k))
        from xibergman import PolySpace, diagonal, scale_domain
        xi = Functional.delta((1,))
        p, k, t = 1.5, 1, 0.5
        base = diagonal(PolySpace.build(Domain.disk(), degree=12), xi, 0j, p).K
        shrunk = diagonal(PolySpace.build(scale_domain(Domain.disk(), t),
                                          degree=12), xi, 0j, p).K
        assert shrunk * t ** (2 + p * k) == pytest.approx(base, rel=1e-9)
