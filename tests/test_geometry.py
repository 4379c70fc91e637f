"""Triangle kernel: lengths, angles, derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circleflow as cf
import geometry_oracle
from circleflow.geometry import _edge_length_dr
from conftest import draw_triangle

GEOMS = (cf.Geometry.EUCLIDEAN, cf.Geometry.HYPERBOLIC, cf.Geometry.SPHERICAL)


def test_geometry_enum():
    assert cf.Geometry.EUCLIDEAN.curvature == 0
    assert cf.Geometry.HYPERBOLIC.curvature == -1
    assert cf.Geometry.SPHERICAL.curvature == 1
    for g in GEOMS:
        assert cf.Geometry.from_tag(g.tag) is g
    with pytest.raises(cf.DomainError):
        cf.Geometry.from_tag("flat")


def test_s_func_forms():
    x = np.linspace(0.1, 1.4, 7)
    assert np.allclose(cf.s_func(cf.Geometry.EUCLIDEAN, x), x)
    assert np.allclose(cf.s_func(cf.Geometry.HYPERBOLIC, x), np.sinh(x))
    assert np.allclose(cf.s_func(cf.Geometry.SPHERICAL, x), np.sin(x))


def test_edge_length_tangent_case_is_additive():
    # zero weight = externally tangent circles, distance is r_a + r_b in all
    # three geometries
    for g in GEOMS:
        ra, rb = (0.3, 0.45) if g is cf.Geometry.SPHERICAL else (0.8, 1.7)
        d = cf.edge_length(g, ra, rb, 0.0)
        assert abs(d - (ra + rb)) < 1e-12


def test_edge_length_symmetric_and_monotone_in_weight():
    ws = np.linspace(0.0, math.pi - 1e-6, 40)
    for g in GEOMS:
        ra, rb = (0.25, 0.4) if g is cf.Geometry.SPHERICAL else (0.9, 1.3)
        d = cf.edge_length(g, ra, rb, ws)
        d_swap = cf.edge_length(g, rb, ra, ws)
        assert np.allclose(d, d_swap, rtol=0, atol=1e-14)
        assert np.all(np.diff(d) < 0)  # deeper overlap -> shorter edge


def test_edge_length_euclidean_law_of_cosines():
    ra, rb, w = 1.1, 0.6, 0.9
    expect = math.sqrt(ra * ra + rb * rb + 2 * ra * rb * math.cos(w))
    assert abs(cf.edge_length(cf.Geometry.EUCLIDEAN, ra, rb, w) - expect) < 1e-15


def test_triangle_lengths_slot_convention():
    # slot n holds the edge opposite circle n
    tc = cf.TriangleConfig(
        geometry=cf.Geometry.EUCLIDEAN,
        radii=(1.0, 2.0, 3.0),
        weights=(0.1, 0.2, 0.3),
    )
    L = cf.triangle_lengths(tc.geometry, np.asarray(tc.radii), np.asarray(tc.weights))
    r = tc.radii
    w = tc.weights
    for n in range(3):
        j, k = (n + 1) % 3, (n + 2) % 3
        assert abs(L[n] - cf.edge_length(tc.geometry, r[j], r[k], w[n])) < 1e-14


def test_triangle_config_validation():
    with pytest.raises(cf.DomainError):
        cf.TriangleConfig(geometry=cf.Geometry.EUCLIDEAN, radii=(1.0, -1.0, 1.0), weights=(0, 0, 0))
    with pytest.raises(cf.DomainError):
        cf.TriangleConfig(geometry=cf.Geometry.EUCLIDEAN, radii=(1.0, 1.0, 1.0), weights=(0, math.pi, 0))
    with pytest.raises(cf.DomainError):
        cf.TriangleConfig(geometry=cf.Geometry.SPHERICAL, radii=(1.5, 1.5, 1.5), weights=(0, 0, 0))


def test_degenerate_triangle_raises():
    # two deep-overlap weights squeeze one side below the triangle inequality
    tc = cf.TriangleConfig(
        geometry=cf.Geometry.EUCLIDEAN, radii=(1.0, 1.0, 1.0), weights=(3.0, 3.0, 0.0)
    )
    with pytest.raises(cf.DegenerateTriangleError):
        cf.tri_angles(tc)


def test_equilateral_angles_by_geometry():
    # equal radii, zero weights: flat case gives pi/3 exactly, curved cases
    # bend the sum the expected way
    for g, cmp in ((cf.Geometry.EUCLIDEAN, 0), (cf.Geometry.HYPERBOLIC, -1), (cf.Geometry.SPHERICAL, 1)):
        r = 0.3 if g is cf.Geometry.SPHERICAL else 1.0
        tc = cf.TriangleConfig(geometry=g, radii=(r, r, r), weights=(0.0, 0.0, 0.0))
        ang = cf.tri_angles(tc)
        assert np.allclose(ang.angles, ang.angles[0])
        if cmp == 0:
            assert abs(ang.angles[0] - math.pi / 3) < 1e-12
            assert abs(ang.area_term) < 1e-12
        elif cmp < 0:
            assert ang.angles[0] < math.pi / 3
            assert ang.area_term < 0
        else:
            assert ang.angles[0] > math.pi / 3
            assert ang.area_term > 0


def test_euclidean_angles_match_coordinate_embedding(rng):
    # independent check: place the triangle from its side lengths and measure
    for _ in range(50):
        tc = draw_triangle(rng, cf.Geometry.EUCLIDEAN, wmax=math.pi - 1e-9)
        ang = cf.tri_angles(tc)
        a, b, c = ang.lengths  # a opposite vertex 0, etc.
        P0 = np.array([0.0, 0.0])
        P1 = np.array([c, 0.0])
        x = (b * b + c * c - a * a) / (2 * c)
        P2 = np.array([x, math.sqrt(max(b * b - x * x, 0.0))])
        def angle_at(P, Q, R):
            u, v = Q - P, R - P
            return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(np.dot(u, v)))
        expect = [angle_at(P0, P1, P2), angle_at(P1, P2, P0), angle_at(P2, P0, P1)]
        assert np.allclose(ang.angles, expect, atol=1e-9)


def test_dtheta_dr_central_differences(rng):
    h = 1e-6
    for g in GEOMS:
        for _ in range(30):
            tc = draw_triangle(rng, g, wmax=math.pi - 1e-9)
            J = cf.dtheta_dr(tc)
            r0 = np.asarray(tc.radii, dtype=float)
            for j in range(3):
                rp, rm = r0.copy(), r0.copy()
                rp[j] += h
                rm[j] -= h
                ap = cf.tri_angles(cf.TriangleConfig(geometry=g, radii=rp, weights=tc.weights)).angles
                am = cf.tri_angles(cf.TriangleConfig(geometry=g, radii=rm, weights=tc.weights)).angles
                fd = (ap - am) / (2 * h)
                assert np.allclose(J[:, j], fd, rtol=1e-6, atol=1e-6)


def test_dtheta_symmetry_identity(rng):
    # s(r_j) dtheta_i/dr_j = s(r_i) dtheta_j/dr_i
    for g in GEOMS:
        for _ in range(100):
            tc = draw_triangle(rng, g, wmax=math.pi - 1e-9)
            J = cf.dtheta_dr(tc)
            s = cf.s_func(g, np.asarray(tc.radii))
            M = s[None, :] * J
            assert np.abs(M - M.T).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    ra=st.floats(0.2, 2.0),
    rb=st.floats(0.2, 2.0),
    w=st.floats(0.0, math.pi / 2),
    gi=st.sampled_from([-1, 0, 1]),
)
def test_edge_length_positive_and_swap_invariant(ra, rb, w, gi):
    g = cf.Geometry(gi)
    if g is cf.Geometry.SPHERICAL:
        ra, rb = ra / 4, rb / 4
    d = cf.edge_length(g, ra, rb, w)
    assert d > 0
    assert d == pytest.approx(cf.edge_length(g, rb, ra, w), abs=1e-14)


ORACLE_RANGES = (
    (cf.Geometry.EUCLIDEAN, 0.1, 3.0),
    (cf.Geometry.HYPERBOLIC, 0.1, 3.0),
    (cf.Geometry.HYPERBOLIC, 1.0, 5.0),
    (cf.Geometry.SPHERICAL, 0.05, 1.0),
)


@pytest.mark.parametrize(
    "geometry, lo, hi", ORACLE_RANGES, ids=[f"{g.tag}-{lo}-{hi}" for g, lo, hi in ORACLE_RANGES]
)
def test_kernel_matches_law_of_cosines_oracle(rng, geometry, lo, hi):
    # random faces with weights in [0, pi/2]; spherical ones keep their
    # radius sum under 0.95*pi, where the oracle's arccos still has its digits
    radii = rng.uniform(lo, hi, (2000, 3))
    if geometry is cf.Geometry.SPHERICAL:
        radii = radii[radii.sum(axis=1) < 0.95 * math.pi]
    weights = rng.uniform(0.0, math.pi / 2, radii.shape)
    r_next, r_prev = radii[:, [1, 2, 0]], radii[:, [2, 0, 1]]
    lengths = cf.triangle_lengths(geometry, radii, weights)
    want = geometry_oracle.edge_length(geometry, r_next, r_prev, weights)
    np.testing.assert_allclose(lengths, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        _edge_length_dr(geometry, r_next, r_prev, weights, lengths),
        geometry_oracle.edge_length_dr(geometry, r_next, r_prev, weights, lengths),
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        cf.angles_from_lengths(geometry, lengths),
        geometry_oracle.angles_from_lengths(geometry, lengths),
        rtol=0, atol=1e-12,
    )


def test_angles_refuse_sides_that_bound_no_triangle():
    for g in GEOMS:
        for sides in ((1.0, 0.4, 0.6), (1.0, 0.3, 0.5), (0.2, np.inf, 0.3), (np.nan, 0.2, 0.2)):
            with pytest.raises(cf.DegenerateTriangleError):
                cf.angles_from_lengths(g, np.array(sides))
    # on the sphere the perimeter must stay below 2*pi as well
    with pytest.raises(cf.DegenerateTriangleError):
        cf.angles_from_lengths(cf.Geometry.SPHERICAL, np.array([2.2, 2.2, 2.2]))
    ok = cf.angles_from_lengths(cf.Geometry.SPHERICAL, np.array([2.0, 2.0, 2.0]))
    assert np.all(ok > math.pi / 3)
