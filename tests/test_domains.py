"""Model domain geometry: volumes, membership, scaling, serialization."""

import math

import numpy as np
import pytest

from xibergman import domains
from xibergman import (
    Domain,
    UnsupportedShapeError,
    boundary_distance,
    build_quadrature,
    contains,
    domain_from_spec,
    scale_domain,
)


class TestVolumes:
    def test_disk(self):
        assert Domain.disk(0.7).volume() == pytest.approx(math.pi * 0.49, rel=1e-12)

    def test_annulus(self):
        dom = Domain.annulus(0.5, 1.0)
        assert dom.volume() == pytest.approx(math.pi * (1 - 0.25), rel=1e-12)

    def test_bidisc(self):
        assert Domain.bidisc(1.0, 0.5).volume() == pytest.approx(
            math.pi**2 * 0.25, rel=1e-12)

    def test_polydisc(self):
        dom = Domain.polydisc((1.0, 0.5, 2.0))
        assert dom.volume() == pytest.approx(math.pi**3 * 1.0, rel=1e-12)

    def test_ball(self):
        # complex n-ball of radius r has volume pi^n r^(2n) / n!
        dom = Domain.ball(1.0, dimension=2)
        assert dom.volume() == pytest.approx(math.pi**2 / 2, rel=1e-12)

    def test_quadrature_integrates_one(self):
        for dom in (Domain.disk(), Domain.annulus(0.3, 0.9), Domain.bidisc(),
                    Domain.ball(dimension=2)):
            quad = build_quadrature(dom, 16, 32)
            assert float(np.sum(quad.weights)) == pytest.approx(
                dom.volume(), rel=1e-10)


class TestQuadrature:
    # one ring moved onto the boundary: the outer circle of the disk and of
    # each polydisc axis, the inner circle of the annulus; the weights, and
    # so the volume, stay right, and only the containment check can refuse
    @pytest.mark.parametrize("dom,rule,ring", [
        (Domain.disk(0.8), "_disk_rings", -1),
        (Domain.polydisc((1.0, 0.5)), "_disk_rings", -1),
        (Domain.annulus(0.5, 1.0), "_annulus_rings", 0),
    ])
    def test_ring_on_the_boundary_is_refused(self, monkeypatch, dom, rule, ring):
        build_quadrature(dom, 8, 16)
        original = getattr(domains, rule)

        def on_edge(edge, *args):
            rings, weights = original(edge, *args)
            rings = rings.copy()
            rings[ring] = edge
            return rings, weights

        monkeypatch.setattr(domains, rule, on_edge)
        with pytest.raises(domains.QuadratureError, match="escaped"):
            build_quadrature(dom, 8, 16)


class TestMembership:
    def test_disk_strict(self):
        disk = Domain.disk()
        assert contains(disk, (0.99 + 0j,))
        assert not contains(disk, (1.0 + 0j,))
        assert not contains(disk, (1.2 + 0j,))

    def test_annulus_excludes_hole(self):
        dom = Domain.annulus(0.5, 1.0)
        assert contains(dom, (0.75 + 0j,))
        assert not contains(dom, (0.3 + 0j,))

    def test_bidisc_per_axis(self):
        dom = Domain.bidisc()
        assert contains(dom, (0.5 + 0j, 0.5 + 0j))
        assert not contains(dom, (0.5 + 0j, 1.1 + 0j))

    def test_ball_euclidean(self):
        dom = Domain.ball(dimension=2)
        assert contains(dom, (0.8 + 0j, 0.8 + 0j)) is False  # norm > 1
        assert contains(dom, (0.5 + 0j, 0.5 + 0j))

    def test_off_center_disk(self):
        dom = Domain.disk(0.5, center=1.0 + 0j)
        assert contains(dom, (1.2 + 0j,))
        assert not contains(dom, (0.4 + 0j,))


class TestGeometry:
    def test_boundary_distance_disk(self):
        assert boundary_distance(Domain.disk(), (0.3 + 0j,)) == pytest.approx(0.7)

    def test_diameter(self):
        dom = Domain.disk(2.0)
        assert dom.diameter() == pytest.approx(4.0)

    def test_scale_domain_volume(self):
        for dom, n in ((Domain.disk(), 1), (Domain.bidisc(), 2)):
            scaled = scale_domain(dom, 0.5)
            assert scaled.volume() == pytest.approx(
                dom.volume() * 0.5 ** (2 * n), rel=1e-12)

    def test_balanced_predicate(self):
        assert Domain.disk().is_balanced_at_origin
        assert Domain.bidisc().is_balanced_at_origin
        assert not Domain.disk(1.0, center=0.3 + 0j).is_balanced_at_origin
        assert not Domain.annulus(0.5, 1.0).is_balanced_at_origin


class TestSerialization:
    @pytest.mark.parametrize("dom", [
        Domain.disk(0.8),
        Domain.disk(1.0, center=0.2 - 0.1j),
        Domain.annulus(0.25, 0.75),
        Domain.bidisc(1.0, 0.5),
        Domain.polydisc((1.0, 0.5, 0.25)),
        Domain.ball(1.5, dimension=2),
    ])
    def test_spec_roundtrip(self, dom):
        assert domain_from_spec(dom.to_spec()).to_spec() == dom.to_spec()

    def test_equal_parameters_give_equal_domains(self):
        assert Domain.disk(1) == Domain.disk(1.0)
        assert hash(Domain.disk(1)) == hash(Domain.disk(1.0))
        assert Domain.disk(1.0) != Domain.disk(0.9)


class TestValidation:
    def test_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Domain.disk(0.0)

    def test_annulus_order(self):
        with pytest.raises(ValueError):
            Domain.annulus(1.0, 0.5)

    def test_ball_dimension(self):
        with pytest.raises(ValueError):
            Domain.ball(dimension=0)

    def test_bad_spec(self):
        with pytest.raises((ValueError, UnsupportedShapeError, KeyError)):
            domain_from_spec({"shape": "torus"})
