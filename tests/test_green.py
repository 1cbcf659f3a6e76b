"""Green sublevel geometry, sweeps, and the kernel limit chain."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import xibergman.green as green
import xibergman.kernels as kernels
from xibergman.cli import main
from xibergman import (
    Domain,
    Functional,
    GreenModel,
    HomogeneousPolynomial,
    PolySpace,
    UnsupportedShapeError,
    azukawa_indicatrix,
    contains,
    default_a_grid,
    diagonal,
    higher_kernel_direct,
    limit_chain_check,
    scale_domain,
    sublevel_domain,
    sweep,
)

MOEBIUS = GreenModel.moebius_disk(0.5 * np.exp(0.7j))
MIXED = Functional.from_string("0: 1; 1: 0.5+0.2j; 2: 0.3")
SMALL_2D = {"degree": 6, "radial_order": 8, "angular_order": 16}


@functools.cache
def _space(domain, degree=None, radial_order=None, angular_order=None):
    """A shared space over ``domain``, for the sweeps and limit chains on it."""
    return PolySpace.build(domain, degree=degree, radial_order=radial_order,
                           angular_order=angular_order)


def _disk(degree=None):
    return _space(Domain.disk(), degree)


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
        table = sweep(_disk(), model, Functional.delta((1,)), 1.5,
                      default_a_grid(-3, 0, 7))
        assert not table.flagged
        assert table.max_scaled_deviation() < 1e-9
        col = table.scaled_column()
        assert col[0] == pytest.approx((1.5 + 2) / (2 * math.pi), rel=1e-8)

    def test_moebius_monotone_smoke(self):
        model = GreenModel.moebius_disk(0.5 + 0j)
        table = sweep(_disk(24), model, Functional.delta((0,)), 2.0,
                      default_a_grid(-2, 0, 9))
        assert not table.flagged
        assert table.monotonicity_margin() >= -1e-8
        assert table.log_convexity_margin() >= -1e-6

    def test_csv_shape(self):
        model = GreenModel.balanced(Domain.disk())
        table = sweep(_disk(), model, Functional.delta((0,)), 2.0, [-1.0, 0.0])
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "a,K,scaled,logK,flag"
        assert len(lines) == 3

    def test_json_metadata(self):
        model = GreenModel.balanced(Domain.disk())
        table = sweep(_disk(), model, Functional.delta((0,)), 2.0, [-1.0, 0.0])
        meta = table.to_json_dict()["metadata"]
        assert meta["kind"] == "balanced"
        assert meta["degree"] == 16

    def test_grid_validation(self):
        model = GreenModel.balanced(Domain.disk())
        xi = Functional.delta((0,))
        with pytest.raises(ValueError):
            sweep(_disk(), model, xi, 2.0, [])
        with pytest.raises(ValueError):
            sweep(_disk(), model, xi, 2.0, [-1.0, -2.0])
        with pytest.raises(ValueError):
            sweep(_disk(), model, xi, 2.0, [-1.0, 0.5])

    def test_higher_target_uses_jet_exponent(self):
        # scaled column for a degree-k target is exp((2 + p k) a) K
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.from_string("z: 1")
        table = sweep(_disk(), model, H, 2.0, default_a_grid(-2, 0, 5))
        assert table.max_scaled_deviation() < 1e-8

    @pytest.mark.parametrize("domain", [Domain.disk(0.5), Domain.bidisc()],
                             ids=["smaller-disk", "bidisc"])
    def test_space_over_another_domain_rejected(self, monkeypatch, domain):
        # refused at entry, before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved on a space over another domain")

        for name in ("_constrained_kernel", "diagonal", "higher_kernel_direct"):
            monkeypatch.setattr(green, name, no_solve)
        space = _space(domain, 4, 8, 16)
        model = GreenModel.balanced(Domain.disk())
        with pytest.raises(ValueError, match="space is over"):
            sweep(space, model, Functional.delta((0,)), 2.0, [-1.0, 0.0])
        with pytest.raises(ValueError, match="space is over"):
            limit_chain_check(space, model, HomogeneousPolynomial.constant(1.0), 2.0,
                              [-1.0, 0.0])


class TestLimitChain:
    def test_disk_plain(self):
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.constant(1.0)
        res = limit_chain_check(_disk(), model, H, 2.0, default_a_grid(-3, 0, 13))
        assert res.passed
        assert res.lhs >= res.limit - 1e-6 * abs(res.limit)
        assert res.limit >= res.rhs - 1e-6 * abs(res.limit)

    def test_disk_first_order(self):
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.from_string("z: 1")
        res = limit_chain_check(_disk(), model, H, 1.5, default_a_grid(-3, 0, 13))
        assert res.passed
        assert res.stabilization < 1e-4

    def test_explicit_functional_with_free_part(self):
        # lower-order terms decay along the shrinking family, so the chain
        # still pinches onto the higher-order kernel
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.from_string("z: 1")
        xi = Functional.from_string("1: 1; 0: 0.5")
        res = limit_chain_check(_disk(), model, H, 2.0,
                                list(np.linspace(-4.0, 0.0, 9)), xi=xi)
        assert res.passed

    def test_whole_domain_row_is_the_lhs(self, monkeypatch):
        # a grid that ends at a = 0 ends on the whole domain: the chain reads
        # its lhs off that row and solves no diagonal of its own, which a
        # grid short of 0 still does
        solved = []

        def recording(*args, **kwargs):
            solved.append(args)
            return diagonal(*args, **kwargs)

        monkeypatch.setattr(green, "diagonal", recording)
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.from_string("z: 1")
        xi = Functional.from_string("1: 1; 0: 0.5")
        for p in (2.0, 1.5):
            res = limit_chain_check(_disk(), model, H, p, default_a_grid(-3, 0, 7), xi=xi)
            assert res.lhs == res.table.rows[-1].K
            assert res.lhs == pytest.approx(diagonal(_disk(), xi, 0j, p).K, rel=1e-12)
        assert solved == []
        res = limit_chain_check(_disk(), model, H, 1.5, [-3.0, -2.0, -1.0], xi=xi)
        assert len(solved) == 1
        assert res.lhs == diagonal(_disk(), xi, 0j, 1.5).K

    def test_p_above_two_rejected(self):
        model = GreenModel.balanced(Domain.disk())
        H = HomogeneousPolynomial.constant(1.0)
        with pytest.raises(ValueError):
            limit_chain_check(_disk(), model, H, 3.0, default_a_grid(-2, 0, 5))


def _per_row(model, target, p, grid, **kw):
    """K along the sweep with a fresh space built on each sublevel domain."""
    out = []
    for a in grid:
        space = PolySpace.build(sublevel_domain(model, a), **kw)
        if isinstance(target, HomogeneousPolynomial):
            out.append(higher_kernel_direct(space, target, model.pole, p).K)
        else:
            out.append(diagonal(space, target, model.pole, p).K)
    return np.array(out)


def _assert_matches_per_row(model, target, p, grid, **kw):
    got = np.array([r.K for r in sweep(_space(model.domain, **kw), model, target, p,
                                       grid).rows])
    ref = _per_row(model, target, p, grid, **kw)
    if p < 1:
        # best-found minima of a nonconvex problem: the objective 1/K may
        # not be worse than the per-row multistart's
        assert np.all(1.0 / got <= (1.0 / ref) * (1 + 1e-9))
    else:
        np.testing.assert_allclose(got, ref, rtol=1e-12 if p == 2 else 1e-9, atol=0)


class TestReferenceSpace:
    """Rows solved on one reference space match a fresh space per row."""

    @pytest.mark.parametrize("p", [2.0, 1.5, 1.0, 0.8])
    @pytest.mark.parametrize("xi", [Functional.delta((0,)), Functional.delta((1,)), MIXED],
                             ids=["delta0", "delta1", "mixed"])
    def test_moebius(self, xi, p):
        grid = default_a_grid(-3, 0, 3 if p < 1 else 5)
        _assert_matches_per_row(MOEBIUS, xi, p, grid, degree=12)

    @pytest.mark.parametrize("p", [2.0, 1.5])
    @pytest.mark.parametrize("domain", [Domain.bidisc(), Domain.ball(dimension=2)],
                             ids=["bidisc", "ball2"])
    def test_balanced_product_domains(self, domain, p):
        xi = Functional.from_string("1,0: 1; 0,1: 0.5j; 0,0: 0.25", 2)
        _assert_matches_per_row(GreenModel.balanced(domain), xi, p,
                                default_a_grid(-2, 0, 4), **SMALL_2D)

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_higher_target(self, p):
        _assert_matches_per_row(GreenModel.balanced(Domain.disk()),
                                HomogeneousPolynomial.from_string("z: 1"), p,
                                default_a_grid(-3, 0, 5), degree=12)


class TestSweepWork:
    """One space per sweep; warm starts exactly on the p >= 1, p != 2 rows."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        raw = PolySpace.__dict__["build"].__func__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return raw(cls, *args, **kwargs)

        monkeypatch.setattr(PolySpace, "build", classmethod(counting))
        return calls

    @pytest.fixture
    def starts(self, monkeypatch):
        seen = []
        raw = kernels.solve_affine_lp

        def recording(op, basis, row, p, start=None, seed=42):
            seen.append(start)
            return raw(op, basis, row, p, start=start, seed=seed)

        monkeypatch.setattr(kernels, "solve_affine_lp", recording)
        return seen

    @pytest.fixture
    def handed(self, monkeypatch):
        # the start the sweep hands the constrained solve, which decides
        # whether the solver starts there
        seen = []
        raw = green._constrained_kernel

        def recording(*args, start=None, **kwargs):
            seen.append(start)
            return raw(*args, start=start, **kwargs)

        monkeypatch.setattr(green, "_constrained_kernel", recording)
        return seen

    @pytest.mark.parametrize("argv", [
        ["--domain", "disk", "--xi", "1: 1", "--pole", "0.38+0.32j", "--degree", "12"],
        ["--domain", "bidisc", "--xi", "0,0: 1", "--degree", "6",
         "--radial-order", "8", "--angular-order", "16"],
    ], ids=["moebius", "bidisc"])
    def test_one_space_per_sweep(self, builds, capsys, argv):
        # the command builds the space, and the sweep solves every row on it
        assert main(["sweep", *argv, "--p", "2", "--a-grid=-3:0:5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert len(builds) == 1

    def test_one_space_per_limit_chain(self, builds):
        # the whole domain, the sweep and the indicatrix share the caller's
        # space, and neither routine builds one of its own
        space = _disk(12)
        builds.clear()
        model = GreenModel.balanced(Domain.disk())
        sweep(space, model, Functional.delta((1,)), 1.5, default_a_grid(-3, 0, 4))
        limit_chain_check(space, model, HomogeneousPolynomial.from_string("z: 1"), 1.5,
                          default_a_grid(-3, 0, 4))
        assert builds == []

    @pytest.mark.parametrize("p", [1.5, 1.0, 3.0])
    def test_rows_after_the_first_start_warm(self, handed, p):
        sweep(_disk(12), MOEBIUS, MIXED, p, default_a_grid(-3, 0, 5))
        assert len(handed) == 5
        assert handed[0] is None
        assert all(s is not None for s in handed[1:])

    def test_higher_target_starts_warm(self, starts):
        sweep(_disk(12), GreenModel.balanced(Domain.disk()),
              HomogeneousPolynomial.from_string("z: 1"), 1.5, default_a_grid(-2, 0, 3))
        assert len(starts) == 3 and starts[0] is None
        assert all(s is not None for s in starts[1:])

    @pytest.mark.parametrize("p", [2.0, 0.8])
    def test_exact_and_multistart_rows_start_cold(self, monkeypatch, starts, p):
        # the p = 2 rows are exact and never call the solver; below p = 1 the
        # handed start never reaches the solve, so the starts the solver gets
        # (the power start of delta_0) and K are the same without it
        def rows():
            table = sweep(_disk(8), MOEBIUS, Functional.delta((0,)), p,
                          default_a_grid(-3, 0, 3))
            return [row.K for row in table.rows]

        warm = rows()
        solved = list(starts)
        starts.clear()
        raw = green._constrained_kernel
        monkeypatch.setattr(green, "_constrained_kernel",
                            lambda *args, start=None, **kwargs: raw(*args, **kwargs))
        assert rows() == warm
        assert len(starts) == len(solved) == (0 if p == 2 else 3)
        assert all(np.array_equal(a, b) for a, b in zip(starts, solved))


def _rescaled(xi, t):
    return Functional(xi.dimension, {idx: c * t ** -idx.degree for idx, c in xi.terms.items()})


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

    # affine covariance, K_{c + t D}(c + t z; xi) = t^(-2n) K_D(z; xi'),
    # xi'_alpha = xi_alpha t^(-|alpha|), for mixed-degree xi, each side on
    # its own space: the law the sweep's reference space rests on
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(t=st.floats(0.2, 1.0),
           r=st.floats(0.0, 0.6), theta=st.floats(0.0, 2 * math.pi),
           cr=st.floats(0.0, 2.0), ctheta=st.floats(0.0, 2 * math.pi),
           p=st.sampled_from([2.0, 1.5]))
    def test_affine_covariance_disk(self, t, r, theta, cr, ctheta, p):
        z, c = r * np.exp(1j * theta), cr * np.exp(1j * ctheta)
        moved = PolySpace.build(Domain.disk(t, c), degree=12)
        lhs = diagonal(moved, MIXED, c + t * z, p).K
        rhs = t ** -2 * diagonal(_disk(12), _rescaled(MIXED, t), z, p).K
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("p", [2.0, 1.5])
    @pytest.mark.parametrize("domain", [Domain.bidisc(), Domain.ball(dimension=2)],
                             ids=["bidisc", "ball2"])
    def test_dilation_product_domains(self, domain, p):
        xi = Functional.from_string("1,0: 1; 0,1: 0.5j; 0,0: 0.25", 2)
        z, t = (0.3 * np.exp(0.4j), 0.2 * np.exp(-1.1j)), 0.4
        base = PolySpace.build(domain, **SMALL_2D)
        shrunk = PolySpace.build(scale_domain(domain, t), **SMALL_2D)
        lhs = diagonal(shrunk, xi, tuple(t * w for w in z), p).K
        rhs = t ** -4 * diagonal(base, _rescaled(xi, t), z, p).K
        assert lhs == pytest.approx(rhs, rel=1e-9)
